//! Property tests for the statement fingerprint the SQL lexer builds.
//!
//! Strategy: generate a statement *shape* — a token sequence of keywords,
//! identifiers, and literal slots — then render it twice with independent
//! random literal values, whitespace runs, and letter case. Both
//! renderings must fingerprint to the shape's canonical form (lowercase
//! tokens, literals as `?`, single spaces), which also proves distinct
//! shapes never collide: their canonical forms differ by construction.

use proptest::collection::vec;
use proptest::prelude::*;

/// The fingerprint of `sql`, which every rendering here lexes.
fn fingerprint(sql: &str) -> String {
    sql::fingerprint(sql).unwrap_or_else(|e| panic!("{sql:?} does not lex: {e}"))
}

/// One token of a statement shape, plus its canonical (normalized) text.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    /// A keyword or punctuation with fixed canonical spelling.
    Word(&'static str),
    /// An identifier (case-folds, keeps digits and underscores).
    Ident(String),
    /// An integer literal slot.
    Int,
    /// A float literal slot, in any form the dialect lexes (`1.5`, `.5`).
    Float,
    /// A string literal slot (may contain `''` escapes).
    Str,
}

impl Token {
    fn canonical(&self) -> String {
        match self {
            Token::Word(w) => w.to_string(),
            Token::Ident(id) => id.to_lowercase(),
            Token::Int | Token::Float | Token::Str => "?".to_string(),
        }
    }
}

fn token_strategy() -> impl Strategy<Value = Token> {
    let words = (0usize..9).prop_map(|i| {
        let pool = [
            "select", "from", "where", "and", "=", ">=", ",", "group by", "overlaps",
        ];
        Token::Word(pool[i])
    });
    let idents = (0usize..8, 0u32..100).prop_map(|(stem, n)| {
        let stems = ["t", "x", "Orders", "Part_Key", "VT", "ts_col", "te", "Emp"];
        Token::Ident(format!("{}{n}", stems[stem]))
    });
    prop_oneof![
        words,
        idents,
        Just(Token::Int),
        Just(Token::Float),
        Just(Token::Str),
    ]
}

/// Rendering noise: per-token literal values, whitespace, and case flips,
/// all drawn from one seed vector so the two renderings are independent.
#[derive(Debug, Clone)]
struct Noise {
    seeds: Vec<u64>,
}

impl Noise {
    fn draw(&self, i: usize) -> u64 {
        // splitmix-style spread over the seed vector.
        let s = self.seeds[i % self.seeds.len()]
            .wrapping_add(0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1));
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

fn render(tokens: &[Token], noise: &Noise) -> String {
    let mut out = String::new();
    for (i, tok) in tokens.iter().enumerate() {
        let r = noise.draw(i);
        // 1–3 whitespace chars between tokens, mixing spaces/tabs/newlines.
        let ws = ["  ", " ", "\t", " \n ", "   "][r as usize % 5];
        if i > 0 {
            out.push_str(ws);
        }
        match tok {
            Token::Word(_) | Token::Ident(_) => {
                let text = match tok {
                    Token::Word(w) => w.to_string(),
                    Token::Ident(id) => id.clone(),
                    _ => unreachable!(),
                };
                // Random per-letter case.
                for (j, c) in text.chars().enumerate() {
                    if noise.draw(i * 31 + j).is_multiple_of(2) {
                        out.extend(c.to_uppercase());
                    } else {
                        out.extend(c.to_lowercase());
                    }
                }
            }
            Token::Int => out.push_str(&format!("{}", r % 100_000)),
            Token::Float => {
                let (whole, frac) = (r % 1000, (r >> 10) % 100);
                match r % 3 {
                    0 => out.push_str(&format!("{whole}.{frac}")),
                    1 => out.push_str(&format!(".{frac}")),
                    _ => out.push_str(&format!("{whole}.0{frac}")),
                }
            }
            Token::Str => {
                let body = match r % 4 {
                    0 => String::new(),
                    1 => format!("v{}", r % 1000),
                    2 => "it''s".to_string(),
                    _ => format!("a b\tc{}", r % 10),
                };
                out.push_str(&format!("'{body}'"));
            }
        }
    }
    // A trailing semicolon must not change the fingerprint.
    if noise.draw(tokens.len() + 7).is_multiple_of(2) {
        out.push(';');
    }
    out
}

fn canonical(tokens: &[Token]) -> String {
    tokens
        .iter()
        .map(Token::canonical)
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Any rendering of a shape — random literals, whitespace, case, an
    /// optional trailing `;` — fingerprints to the shape's canonical form.
    #[test]
    fn renderings_of_one_shape_share_a_fingerprint(
        tokens in vec(token_strategy(), 1..12),
        seeds_a in vec(0u64..u64::MAX, 4..8),
        seeds_b in vec(0u64..u64::MAX, 4..8),
    ) {
        let want = canonical(&tokens);
        let a = render(&tokens, &Noise { seeds: seeds_a });
        let b = render(&tokens, &Noise { seeds: seeds_b });
        prop_assert_eq!(&fingerprint(&a), &want, "rendering A: {:?}", a);
        prop_assert_eq!(&fingerprint(&b), &want, "rendering B: {:?}", b);
    }

    /// Distinct shapes never collide: shapes with different canonical
    /// forms fingerprint differently, whatever their renderings.
    #[test]
    fn distinct_shapes_never_collide(
        tokens_a in vec(token_strategy(), 1..12),
        tokens_b in vec(token_strategy(), 1..12),
        seeds in vec(0u64..u64::MAX, 4..8),
    ) {
        let noise = Noise { seeds };
        let fp_a = fingerprint(&render(&tokens_a, &noise));
        let fp_b = fingerprint(&render(&tokens_b, &noise));
        if canonical(&tokens_a) != canonical(&tokens_b) {
            prop_assert_ne!(fp_a, fp_b);
        } else {
            prop_assert_eq!(fp_a, fp_b);
        }
    }
}

/// The dialect has no exponent: `1.5e3` is the literal `1.5` followed by
/// the identifier `e3`, which the parser reads as `1.5 AS e3`. The
/// fingerprint says the same.
#[test]
fn an_exponent_fingerprints_as_the_parser_reads_it() {
    let sql = "SELECT 1.5e3 FROM t";
    assert_eq!(fingerprint(sql), "select ? e3 from t");
    let sql::QueryExpr::Select(select) = sql::parse_statement(sql).unwrap().query else {
        panic!("expected a SELECT");
    };
    assert!(matches!(
        &select.items[..],
        [sql::SelectItem::Expr { alias: Some(a), .. }] if a == "e3"
    ));
}
