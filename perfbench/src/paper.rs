//! Seeded inputs for the four paper programs and independent references
//! for their outputs.
//!
//! Each reference recomputes what the program must print from the input
//! alone, in plain Rust, without the compiler or VM under test:
//!
//! * `cordtest` — the cord operations modelled on flat strings;
//! * `cfrac` — every factor list must multiply back to its number and
//!   contain only primes, and the closing checksum is recomputed;
//! * `gawk` — the word tally, including the hash-bucket order that picks
//!   the reported top word among ties;
//! * `gs` — a small stack interpreter over the same token language.

use crate::rng::Rng;
use std::fmt::Write as _;

/// The four paper programs, in table order.
pub const PROGRAMS: [&str; 4] = ["cordtest", "cfrac", "gawk", "gs"];

/// Cordtest iterations per input.
const CORD_ITERS: i64 = 2;
/// Cordtest words per iteration. Each size range is narrow, so inputs
/// differ in content and only a little in the work they take.
const CORD_WORDS: (i64, i64) = (490, 511);
/// Numbers per cfrac input.
const CFRAC_NUMBERS: usize = 4;
/// Lines per gawk input.
const GAWK_LINES: (i64, i64) = (1490, 1511);
/// Statements per gs input.
const GS_STATEMENTS: (i64, i64) = (990, 1011);

/// The vocabulary of gawk's records.
const WORDS: &[&str] = &[
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet",
    "kilo", "lima", "mike", "november", "oscar", "papa", "quebec", "romeo", "sierra", "tango",
];

/// The input of `program` for `round` of a run with `seed`. Every mode
/// of one program in one round reads the same input, so their outputs
/// and cycle counts compare.
pub fn input(program: &str, seed: u64, round: u64) -> Vec<u8> {
    let mut r = Rng::for_item(seed, program, round);
    match program {
        "cordtest" => {
            format!("{CORD_ITERS} {}\n", r.range(CORD_WORDS.0, CORD_WORDS.1)).into_bytes()
        }
        "cfrac" => {
            let mut s = format!("{CFRAC_NUMBERS}\n");
            for i in 0..CFRAC_NUMBERS {
                // Smooth numbers, as in workloads::cfrac::default_numbers,
                // and numbers with one prime factor above the program's
                // trial-division limit (4000): trial division then always
                // runs to the limit, so the work per number varies little.
                // At most one such factor, because the program's Pollard
                // rho (x0 = 2, c = 1, no retry) can return a product of two
                // of them whole and print it as a prime (40164161 =
                // 6037 * 6653 is one).
                let v = if i % 3 == 0 {
                    2 * 3 * 5 * 7 * 11 * 13 * r.range(1, 1001)
                } else {
                    r.range(2, 4_000) * prime_in(&mut r, 4_001, 25_000)
                };
                let _ = writeln!(s, "{v}");
            }
            s.into_bytes()
        }
        "gawk" => {
            let mut s = String::new();
            for _ in 0..r.range(GAWK_LINES.0, GAWK_LINES.1) {
                let w1 = WORDS[r.index(WORDS.len())];
                let n = r.range(0, 1000);
                let w2 = WORDS[r.index(WORDS.len())];
                let _ = write!(s, "{w1} {n} {w2}");
                if r.index(4) == 0 {
                    let _ = write!(s, " {}", r.range(0, 100));
                }
                s.push('\n');
            }
            s.into_bytes()
        }
        "gs" => gs_input(&mut r),
        other => panic!("unknown paper program {other}"),
    }
}

/// A uniformly drawn prime in `lo..hi`.
fn prime_in(r: &mut Rng, lo: i64, hi: i64) -> i64 {
    loop {
        let c = r.range(lo, hi);
        if is_prime(c) {
            return c;
        }
    }
}

/// The statement mix of `workloads::gs::input`, drawn from `r`.
fn gs_input(r: &mut Rng) -> Vec<u8> {
    let mut out = String::new();
    for i in 0..r.range(GS_STATEMENTS.0, GS_STATEMENTS.1) {
        let _ = match r.index(7) {
            0 => writeln!(
                out,
                "{} {} add print",
                r.range(0, 10_000),
                r.range(0, 10_000)
            ),
            1 => writeln!(out, "{} dup mul print", r.range(0, 1000)),
            2 => writeln!(
                out,
                "(w{}) (x{}) concat dup length print print",
                r.range(0, 50),
                r.range(0, 50)
            ),
            3 => {
                out.push('[');
                for _ in 0..r.range(2, 7) {
                    let _ = write!(out, " {}", r.range(0, 100));
                }
                writeln!(out, " ] sum print")
            }
            4 => writeln!(out, "/v{} {} def", i % 40, r.range(0, 500)),
            5 => writeln!(out, "(v{}) load print", i % 40),
            _ => {
                let n = r.range(2, 6);
                out.push('[');
                for _ in 0..n {
                    let _ = write!(out, " {}", r.range(0, 100));
                }
                writeln!(out, " ] {} index print", r.range(0, n))
            }
        };
    }
    out.into_bytes()
}

/// Checks `output` against the reference for `program` on `input`.
///
/// # Errors
///
/// Describes the first disagreement.
pub fn check(program: &str, input: &[u8], output: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(output).map_err(|_| "output is not UTF-8".to_string())?;
    let input = std::str::from_utf8(input).expect("generated inputs are ASCII");
    match program {
        "cfrac" => check_cfrac(input, text),
        _ => {
            let want = match program {
                "cordtest" => cordtest(input),
                "gawk" => gawk(input),
                "gs" => gs(input),
                other => return Err(format!("unknown paper program {other}")),
            };
            if text == want {
                Ok(())
            } else {
                Err(format!("{program}: printed {text:?}, reference {want:?}"))
            }
        }
    }
}

fn numbers(input: &str) -> impl Iterator<Item = i64> + '_ {
    input
        .split_ascii_whitespace()
        .map(|t| t.parse().expect("generated numbers parse"))
}

fn cordtest(input: &str) -> String {
    let mut it = numbers(input);
    let (iters, words) = (it.next().unwrap_or(0), it.next().unwrap_or(0));
    let mask = 0xff_ffff;
    let word = |i: i64| -> [u8; 4] {
        let l = |k: i64| b'a' + (k % 26) as u8;
        [b'w', l(i), l(i / 26), l(i / 676)]
    };
    let find = |hay: &[u8], needle: &[u8], from: usize| -> i64 {
        (from..=hay.len().saturating_sub(needle.len()))
            .find(|&i| hay[i..].starts_with(needle))
            .map_or(-1, |i| i as i64)
    };
    let cmp = |a: &[u8], b: &[u8]| -> i64 {
        match a.cmp(b) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        }
    };
    let mut checksum: i64 = 0;
    for iter in 0..iters {
        let c: Vec<u8> = (0..words).flat_map(|i| word(i + iter)).collect();
        let len = c.len();
        let mid = &c[(len / 4).min(len)..(len / 4 + len / 2).min(len)];
        let mut rev = mid.to_vec();
        rev.extend_from_slice(&c[..40.min(len)]);
        let h = rev
            .iter()
            .fold(5381i64, |h, &b| (h * 33 + i64::from(b)) & mask);
        checksum = (checksum * 31 + h) & mask;
        for i in 0..100 {
            checksum = (checksum + i64::from(c[(i * 37) % len])) & mask;
        }
        let reversed: Vec<u8> = mid.iter().rev().copied().collect();
        if cmp(mid, &reversed) != 0 {
            checksum = (checksum * 7 + 13) & mask;
        }
        let from = usize::try_from(iter).expect("iteration index is small");
        let chr = if from < len { find(&c, b"w", from) } else { -1 };
        checksum = (checksum + chr) & mask;
        checksum = (checksum + find(&c, b"waa", 0)) & mask;
        checksum = (checksum * 31 + cmp(&c, mid)) & mask;
    }
    format!("cordtest {checksum}\n")
}

fn is_prime(n: i64) -> bool {
    n >= 2 && (2..).take_while(|d| d * d <= n).all(|d| n % d != 0)
}

fn check_cfrac(input: &str, text: &str) -> Result<(), String> {
    let mut it = numbers(input);
    let count = it.next().unwrap_or(0);
    let mut lines = text.lines();
    let mut check: i64 = 0;
    for _ in 0..count {
        let v = it.next().ok_or("cfrac input ended early")?;
        let line = lines.next().ok_or("cfrac output ended early")?;
        let (head, factors) = line
            .split_once(" =")
            .ok_or_else(|| format!("cfrac: malformed line {line:?}"))?;
        if head != v.to_string() {
            return Err(format!("cfrac: line {line:?} is not for {v}"));
        }
        let factors: Vec<i64> = factors
            .split_ascii_whitespace()
            .map(|f| {
                f.parse()
                    .map_err(|_| format!("cfrac: bad factor in {line:?}"))
            })
            .collect::<Result<_, _>>()?;
        let product = factors.iter().try_fold(1i64, |p, &f| p.checked_mul(f));
        if product != Some(v) || !factors.iter().all(|&f| is_prime(f)) {
            return Err(format!(
                "cfrac: {line:?} is not the prime factorization of {v}"
            ));
        }
        if !factors.windows(2).all(|w| w[0] <= w[1]) {
            return Err(format!("cfrac: factors of {v} are not ascending"));
        }
        check = (check * 31 + v % 9973) & 0xff_ffff;
    }
    let want = format!("cfrac {check}");
    match (lines.next(), lines.next()) {
        (Some(last), None) if last == want && text.ends_with('\n') => Ok(()),
        (last, _) => Err(format!("cfrac: closing line {last:?}, reference {want:?}")),
    }
}

fn gawk(input: &str) -> String {
    const BUCKETS: usize = 128;
    // Each bucket lists its words most recent first, as the program's
    // chained table prepends.
    let mut table: Vec<Vec<(String, i64)>> = vec![Vec::new(); BUCKETS];
    let (mut lines, mut words, mut sum) = (0i64, 0i64, 0i64);
    for line in input.lines() {
        let fields: Vec<&str> = line.split(' ').filter(|f| !f.is_empty()).take(16).collect();
        let Some(first) = fields.first() else {
            continue;
        };
        lines += 1;
        words += fields.len() as i64;
        if let Some(second) = fields.get(1) {
            sum += second
                .bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0i64, |v, d| v * 10 + i64::from(d - b'0'));
        }
        let h = first
            .bytes()
            .fold(5381i64, |h, b| (h * 33 + i64::from(b)) & 0x7f_ffff);
        let bucket = &mut table[(h % BUCKETS as i64) as usize];
        match bucket.iter_mut().find(|(w, _)| w == first) {
            Some((_, n)) => *n += 1,
            None => bucket.insert(0, ((*first).to_string(), 1)),
        }
    }
    let (mut top, mut top_count, mut distinct) = ("", 0i64, 0i64);
    for (w, n) in table.iter().flatten() {
        distinct += 1;
        if *n > top_count {
            top = w;
            top_count = *n;
        }
    }
    format!("lines {lines} words {words} sum {sum} distinct {distinct} top {top} x{top_count}\n")
}

/// A gs value.
#[derive(Clone)]
enum Obj {
    Int(i64),
    Str(String),
    Arr(Vec<Obj>),
}

fn gs(input: &str) -> String {
    let mask = 0xff_ffff;
    let mut stack: Vec<Obj> = Vec::new();
    let mut marks: Vec<usize> = Vec::new();
    let mut dict: Vec<(String, Obj)> = Vec::new();
    let mut check: i64 = 0;
    let int = |o: &Obj| match o {
        Obj::Int(v) => *v,
        _ => 0,
    };
    let mut bytes = input.bytes().peekable();
    loop {
        while bytes.next_if(|b| b.is_ascii_whitespace()).is_some() {}
        let Some(c) = bytes.next() else {
            break;
        };
        let mut word = |first: Option<u8>, end: &dyn Fn(u8) -> bool| {
            let mut s: String = first.map(char::from).into_iter().collect();
            while let Some(b) = bytes.next_if(|&b| !end(b)) {
                s.push(char::from(b));
            }
            s
        };
        let name = match c {
            b'[' => {
                marks.push(stack.len());
                continue;
            }
            b']' => {
                let start = marks.pop().expect("generated brackets balance");
                let elems = stack.split_off(start);
                stack.push(Obj::Arr(elems));
                continue;
            }
            b'0'..=b'9' => {
                let digits = word(Some(c), &|b| !b.is_ascii_digit());
                stack.push(Obj::Int(digits.parse().expect("digits")));
                continue;
            }
            b'(' => {
                let s = word(None, &|b| b == b')');
                bytes.next();
                stack.push(Obj::Str(s));
                continue;
            }
            b'/' => {
                let s = word(None, &|b| b <= b' ');
                stack.push(Obj::Str(s));
                continue;
            }
            _ => word(Some(c), &|b| b <= b' '),
        };
        let mut pop = || stack.pop().expect("generated programs never underflow");
        match name.as_str() {
            "add" | "sub" | "mul" => {
                let (b, a) = (int(&pop()), int(&pop()));
                let v = match name.as_str() {
                    "add" => a + b,
                    "sub" => a - b,
                    _ => a * b,
                };
                stack.push(Obj::Int(v));
            }
            "dup" => {
                let a = pop();
                stack.push(a.clone());
                stack.push(a);
            }
            "exch" => {
                let (b, a) = (pop(), pop());
                stack.push(b);
                stack.push(a);
            }
            "pop" => {
                pop();
            }
            "concat" => {
                let (b, a) = (pop(), pop());
                let (Obj::Str(a), Obj::Str(b)) = (a, b) else {
                    panic!("generated concat operands are strings");
                };
                stack.push(Obj::Str(a + &b));
            }
            "length" => {
                let n = match pop() {
                    Obj::Int(_) => 0,
                    Obj::Str(s) => s.len(),
                    Obj::Arr(v) => v.len(),
                };
                stack.push(Obj::Int(n as i64));
            }
            "def" => {
                let (val, name) = (pop(), pop());
                let Obj::Str(name) = name else {
                    panic!("generated def names are strings");
                };
                dict.push((name, val));
            }
            "print" => {
                check = match pop() {
                    Obj::Int(v) => (check * 31 + v) & mask,
                    Obj::Str(s) => s.bytes().fold(check, |h, b| (h * 31 + i64::from(b)) & mask),
                    Obj::Arr(v) => (check * 31 + v.len() as i64) & mask,
                };
            }
            "index" => {
                let (n, arr) = (int(&pop()), pop());
                let hit = match &arr {
                    Obj::Arr(v) => usize::try_from(n).ok().and_then(|i| v.get(i)).cloned(),
                    _ => None,
                };
                stack.push(hit.unwrap_or(Obj::Int(-1)));
            }
            "sum" => {
                let s = match pop() {
                    Obj::Arr(v) => v.iter().map(int).sum(),
                    _ => 0,
                };
                stack.push(Obj::Int(s));
            }
            other => {
                // "load", or an unknown name loaded from the dictionary.
                let key = if other == "load" {
                    match pop() {
                        Obj::Str(s) => s,
                        _ => panic!("generated load names are strings"),
                    }
                } else {
                    other.to_string()
                };
                let val = dict.iter().rev().find(|(k, _)| *k == key);
                stack.push(val.map_or(Obj::Int(0), |(_, v)| v.clone()));
            }
        }
    }
    format!("gs {check} depth {}\n", stack.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for p in PROGRAMS {
            assert_eq!(input(p, 5, 2), input(p, 5, 2));
            assert_ne!(input(p, 5, 2), input(p, 6, 2));
        }
    }

    #[test]
    fn references_reject_a_wrong_answer() {
        let inp = input("gawk", 1, 0);
        assert!(check("gawk", &inp, b"lines 0 words 0 sum 0 distinct 0 top  x0\n").is_err());
        let inp = b"2\n12\n35\n";
        assert!(check("cfrac", inp, b"12 = 2 2 3\n35 = 5 7\ncfrac 407\n").is_ok());
        assert!(check("cfrac", inp, b"12 = 2 6\n35 = 5 7\ncfrac 407\n").is_err());
        assert!(check("cfrac", inp, b"12 = 2 2 3\n35 = 5 7\ncfrac 408\n").is_err());
    }

    #[test]
    fn gs_reference_follows_the_token_language() {
        let prog = "1 2 add print /v1 7 def (v1) load print v1 print \
                    [ 1 2 3 ] 1 index print (ab) (c) concat dup length print print";
        // check = fold of 3, 7, 7, 2, 3, 'a', 'b', 'c' under h * 31 + x.
        let want = [3i64, 7, 7, 2, 3, 97, 98, 99]
            .iter()
            .fold(0i64, |h, x| (h * 31 + x) & 0xff_ffff);
        assert_eq!(gs(prog), format!("gs {want} depth 0\n"));
    }
}
