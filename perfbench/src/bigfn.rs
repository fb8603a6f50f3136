//! Seeded generator of `bigfn-compile` programs: three functions of 6, 12
//! and 24 straight-line `if` and pointer-arithmetic statements over one
//! 16-word heap array, called from a short `main`.
//!
//! The generator is also the reference: it interprets every statement as
//! it emits it, so each program carries its expected output, computed
//! without the compiler under test. Every pointer it forms stays inside
//! the array (`a + k` with `0 <= k < 16`, and every access through it
//! lands in `0..16`), so all five modes — including `-g, checked` and the
//! use-after-free trap — must run it to completion.

use crate::rng::Rng;
use std::fmt::Write as _;

/// Words in `main`'s heap array.
const WORDS: i64 = 16;
/// Statements in each function of a program: a 4x spread, so a layer
/// whose cost grows faster than linearly in function size shows it within
/// every program. Every program has the same sizes, so op times compare
/// across programs and seeds.
const FUNC_STMTS: [usize; 3] = [6, 12, 24];

/// `s` is kept below this (a 20-bit mask) so no expression overflows.
const S_MASK: i64 = (1 << 20) - 1;
/// Array words are kept below this (a 16-bit mask).
const A_MASK: i64 = (1 << 16) - 1;

/// One generated program and its independently computed output.
pub struct Program {
    /// C source text.
    pub source: String,
    /// What the program must print.
    pub expected: Vec<u8>,
}

/// Generates program `index` of the `bigfn-compile` stream for `seed`.
pub fn generate(seed: u64, index: u64) -> Program {
    let mut r = Rng::for_item(seed, "bigfn", index);
    let (mul, add) = (r.range(1, 1000), r.range(0, A_MASK + 1));
    let mut a: Vec<i64> = (0..WORDS).map(|j| (j * mul + add) & A_MASK).collect();
    let mut src = format!("/* perfbench bigfn seed={seed} program={index} */\n");
    let bodies: Vec<Vec<Stmt>> = FUNC_STMTS
        .iter()
        .map(|&n| {
            let kinds = stratified_kinds(&mut r, n);
            kinds.into_iter().map(|k| Stmt::random(&mut r, k)).collect()
        })
        .collect();
    for (fi, stmts) in bodies.iter().enumerate() {
        let _ = write!(
            src,
            "long f{fi}(long *a, long x) {{\n    long s;\n    long t;\n    long *p;\n    s = x;\n"
        );
        for st in stmts {
            st.emit(&mut src);
        }
        src.push_str("    return s;\n}\n\n");
    }
    src.push_str("int main(void) {\n    long *a;\n    long j;\n    long r;\n");
    let _ = writeln!(src, "    a = (long *) malloc({WORDS} * sizeof(long));");
    let _ = writeln!(
        src,
        "    for (j = 0; j < {WORDS}; j = j + 1) {{\n        a[j] = (j * {mul} + {add}) & {A_MASK};\n    }}"
    );
    let mut out = String::new();
    for (fi, stmts) in bodies.iter().enumerate() {
        for _ in 0..2 {
            let x = r.range(0, S_MASK + 1);
            let _ = writeln!(
                src,
                "    r = f{fi}(a, {x});\n    putint(r);\n    putchar(10);"
            );
            let mut s = x;
            for st in stmts {
                st.exec(&mut s, &mut a);
            }
            let _ = writeln!(out, "{s}");
        }
    }
    let _ = write!(
        src,
        "    r = 0;\n    for (j = 0; j < {WORDS}; j = j + 1) {{\n        r = (r * 31 + a[j]) & {S_MASK};\n    }}\n    putint(r);\n    putchar(10);\n    return 0;\n}}\n"
    );
    let mut h = 0i64;
    for v in &a {
        h = (h * 31 + v) & S_MASK;
    }
    let _ = writeln!(out, "{h}");
    Program {
        source: src,
        expected: out.into_bytes(),
    }
}

/// Statement kinds for a function of `n` statements: every kind
/// `n / KINDS` or `n / KINDS + 1` times, in random order. Programs then
/// differ in operands and order, not in their mix, so code size and
/// compile time vary little from one program or seed to the next.
fn stratified_kinds(r: &mut Rng, n: usize) -> Vec<usize> {
    let offset = r.index(KINDS);
    let mut kinds: Vec<usize> = (0..n).map(|j| (j + offset) % KINDS).collect();
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, r.index(i + 1));
    }
    kinds
}

/// Number of statement kinds.
const KINDS: usize = 7;

/// One generated statement. Offsets satisfy `0 <= k < WORDS` and
/// `0 <= k + j < WORDS` (`k - j` for the backward form).
#[derive(Debug, Clone, Copy)]
enum Stmt {
    /// `if (s % m < c) { s = (s + a[i]) & S; }`
    IfAdd { m: i64, c: i64, i: i64 },
    /// `p = a + k; s = (s ^ p[j]) & S;`
    XorThrough { k: i64, j: i64 },
    /// `p = a + k; p[j] = (s + c) & A;`
    StoreThrough { k: i64, j: i64, c: i64 },
    /// `if (s > c) { s = s - c; } else { s = (s * 3 + d) & S; }`
    IfElse { c: i64, d: i64 },
    /// `s = (s * m + a[i]) & S;`
    MulAdd { m: i64, i: i64 },
    /// `p = a + k; t = *(p - j); s = (s + t * 2) & S;`
    BackRead { k: i64, j: i64 },
    /// `p = a + k; if (*p > s % A) { s = (s + *p) & S; } else { *p = s & A; }`
    IfDeref { k: i64 },
}

impl Stmt {
    /// A statement of kind `kind` (`0..KINDS`) with random operands.
    fn random(r: &mut Rng, kind: usize) -> Stmt {
        match kind {
            0 => Stmt::IfAdd {
                m: r.range(2, 64),
                c: r.range(1, 32),
                i: r.range(0, WORDS),
            },
            1 => {
                let k = r.range(0, WORDS);
                Stmt::XorThrough {
                    k,
                    j: r.range(0, WORDS - k),
                }
            }
            2 => {
                let k = r.range(0, WORDS);
                Stmt::StoreThrough {
                    k,
                    j: r.range(0, WORDS - k),
                    c: r.range(0, 1000),
                }
            }
            3 => Stmt::IfElse {
                c: r.range(1, S_MASK),
                d: r.range(0, 1000),
            },
            4 => Stmt::MulAdd {
                m: r.range(2, 32),
                i: r.range(0, WORDS),
            },
            5 => {
                let k = r.range(0, WORDS);
                Stmt::BackRead {
                    k,
                    j: r.range(0, k + 1),
                }
            }
            _ => Stmt::IfDeref {
                k: r.range(0, WORDS),
            },
        }
    }

    fn emit(self, out: &mut String) {
        let _ = match self {
            Stmt::IfAdd { m, c, i } => writeln!(
                out,
                "    if (s % {m} < {c}) {{\n        s = (s + a[{i}]) & {S_MASK};\n    }}"
            ),
            Stmt::XorThrough { k, j } => {
                writeln!(out, "    p = a + {k};\n    s = (s ^ p[{j}]) & {S_MASK};")
            }
            Stmt::StoreThrough { k, j, c } => {
                writeln!(out, "    p = a + {k};\n    p[{j}] = (s + {c}) & {A_MASK};")
            }
            Stmt::IfElse { c, d } => writeln!(
                out,
                "    if (s > {c}) {{\n        s = s - {c};\n    }} else {{\n        s = (s * 3 + {d}) & {S_MASK};\n    }}"
            ),
            Stmt::MulAdd { m, i } => writeln!(out, "    s = (s * {m} + a[{i}]) & {S_MASK};"),
            Stmt::BackRead { k, j } => writeln!(
                out,
                "    p = a + {k};\n    t = *(p - {j});\n    s = (s + t * 2) & {S_MASK};"
            ),
            Stmt::IfDeref { k } => writeln!(
                out,
                "    p = a + {k};\n    if (*p > s % {A_MASK}) {{\n        s = (s + *p) & {S_MASK};\n    }} else {{\n        *p = s & {A_MASK};\n    }}"
            ),
        };
    }

    /// The statement's meaning, evaluated directly.
    fn exec(self, s: &mut i64, a: &mut [i64]) {
        let at = |k: i64| usize::try_from(k).expect("generated offsets are in bounds");
        match self {
            Stmt::IfAdd { m, c, i } => {
                if *s % m < c {
                    *s = (*s + a[at(i)]) & S_MASK;
                }
            }
            Stmt::XorThrough { k, j } => *s = (*s ^ a[at(k + j)]) & S_MASK,
            Stmt::StoreThrough { k, j, c } => a[at(k + j)] = (*s + c) & A_MASK,
            Stmt::IfElse { c, d } => {
                if *s > c {
                    *s -= c;
                } else {
                    *s = (*s * 3 + d) & S_MASK;
                }
            }
            Stmt::MulAdd { m, i } => *s = (*s * m + a[at(i)]) & S_MASK,
            Stmt::BackRead { k, j } => *s = (*s + a[at(k - j)] * 2) & S_MASK,
            Stmt::IfDeref { k } => {
                let v = a[at(k)];
                if v > *s % A_MASK {
                    *s = (*s + v) & S_MASK;
                } else {
                    a[at(k)] = *s & A_MASK;
                }
            }
        }
    }
}
