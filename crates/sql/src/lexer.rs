//! Tokenizer for the SQL dialect.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are recognized case-insensitively;
    /// identifiers are lower-cased).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// The integer literal `9223372036854775808` directly after a `-`: the
    /// magnitude of `i64::MIN`, which only that minus can negate into
    /// range (anywhere else the parser refuses it as out of range).
    IntMinMagnitude,
    /// Float literal.
    Double(f64),
    /// String literal (single-quoted, `''` escapes a quote).
    Str(String),
    /// Punctuation / operator.
    Symbol(Sym),
    /// End of input.
    Eof,
}

/// Operator and punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Leq,
    /// `>`
    Gt,
    /// `>=`
    Geq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `;`
    Semicolon,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::IntMinMagnitude => write!(f, "{INT_MIN_MAGNITUDE}"),
            Token::Double(d) => write!(f, "{d}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Symbol(s) => write!(f, "{s:?}"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// The decimal text of `i64::MIN`'s magnitude, 2^63.
pub(crate) const INT_MIN_MAGNITUDE: &str = "9223372036854775808";

/// The value of the integer literal `text`, or the error naming it.
pub(crate) fn int_literal(text: &str) -> Result<i64, String> {
    text.parse()
        .map_err(|e| format!("bad number '{text}': {e}"))
}

/// Tokenizes `input`, lower-casing identifiers/keywords.
pub fn tokenize(input: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    let chars: Vec<char> = input.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if chars.get(i + 1) == Some(&'-') => {
                // Line comment.
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push(Token::Symbol(Sym::LParen));
                i += 1;
            }
            ')' => {
                out.push(Token::Symbol(Sym::RParen));
                i += 1;
            }
            ',' => {
                out.push(Token::Symbol(Sym::Comma));
                i += 1;
            }
            '.' if !chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) => {
                out.push(Token::Symbol(Sym::Dot));
                i += 1;
            }
            '*' => {
                out.push(Token::Symbol(Sym::Star));
                i += 1;
            }
            ';' => {
                out.push(Token::Symbol(Sym::Semicolon));
                i += 1;
            }
            '+' => {
                out.push(Token::Symbol(Sym::Plus));
                i += 1;
            }
            '-' => {
                out.push(Token::Symbol(Sym::Minus));
                i += 1;
            }
            '/' => {
                out.push(Token::Symbol(Sym::Slash));
                i += 1;
            }
            '=' => {
                out.push(Token::Symbol(Sym::Eq));
                i += 1;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                out.push(Token::Symbol(Sym::Neq));
                i += 2;
            }
            '<' => match chars.get(i + 1) {
                Some('=') => {
                    out.push(Token::Symbol(Sym::Leq));
                    i += 2;
                }
                Some('>') => {
                    out.push(Token::Symbol(Sym::Neq));
                    i += 2;
                }
                _ => {
                    out.push(Token::Symbol(Sym::Lt));
                    i += 1;
                }
            },
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push(Token::Symbol(Sym::Geq));
                    i += 2;
                } else {
                    out.push(Token::Symbol(Sym::Gt));
                    i += 1;
                }
            }
            '\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => return Err("unterminated string literal".into()),
                        Some('\'') if chars.get(i + 1) == Some(&'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some('\'') => {
                            i += 1;
                            break;
                        }
                        Some(c) => {
                            s.push(*c);
                            i += 1;
                        }
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_ascii_digit()
                || (c == '.' && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())) =>
            {
                let start = i;
                let mut saw_dot = false;
                while i < chars.len()
                    && (chars[i].is_ascii_digit() || (chars[i] == '.' && !saw_dot))
                {
                    if chars[i] == '.' {
                        // `1..` would be a syntax error downstream; accept one dot.
                        if chars.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                            saw_dot = true;
                        } else {
                            break;
                        }
                    }
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                if saw_dot {
                    out.push(Token::Double(
                        text.parse()
                            .map_err(|e| format!("bad number '{text}': {e}"))?,
                    ));
                } else if text == INT_MIN_MAGNITUDE
                    && out.last() == Some(&Token::Symbol(Sym::Minus))
                {
                    out.push(Token::IntMinMagnitude);
                } else {
                    out.push(Token::Int(int_literal(&text)?));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                out.push(Token::Ident(word.to_lowercase()));
            }
            other => return Err(format!("unexpected character '{other}'")),
        }
    }
    out.push(Token::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_and_identifiers_lowercased() {
        let toks = tokenize("SELECT Name FROM Works").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Ident("select".into()),
                Token::Ident("name".into()),
                Token::Ident("from".into()),
                Token::Ident("works".into()),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn numbers() {
        let toks = tokenize("42 3.5 .25").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Int(42),
                Token::Double(3.5),
                Token::Double(0.25),
                Token::Eof
            ]
        );
    }

    #[test]
    fn the_magnitude_of_int_min_lexes_only_after_a_minus() {
        let toks = tokenize("-9223372036854775808").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Symbol(Sym::Minus),
                Token::IntMinMagnitude,
                Token::Eof
            ]
        );
        let err = tokenize("9223372036854775808").unwrap_err();
        assert_eq!(
            err,
            "bad number '9223372036854775808': number too large to fit in target type"
        );
        assert!(tokenize("-9223372036854775809").is_err());
    }

    #[test]
    fn strings_with_escapes() {
        let toks = tokenize("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into()), Token::Eof]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <= b <> c >= d != e").unwrap();
        let syms: Vec<&Token> = toks
            .iter()
            .filter(|t| matches!(t, Token::Symbol(_)))
            .collect();
        assert_eq!(
            syms,
            vec![
                &Token::Symbol(Sym::Leq),
                &Token::Symbol(Sym::Neq),
                &Token::Symbol(Sym::Geq),
                &Token::Symbol(Sym::Neq),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = tokenize("select -- the names\n name").unwrap();
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn qualified_star_and_dot() {
        let toks = tokenize("w.name count(*)").unwrap();
        assert!(toks.contains(&Token::Symbol(Sym::Dot)));
        assert!(toks.contains(&Token::Symbol(Sym::Star)));
    }
}
