//! Tokenizer for the SQL dialect: the one scanner of SQL text. Statement
//! boundaries ([`crate::split_script`], [`ends_statement`]), statement
//! text and [`fingerprint`]s all come from its tokens and their byte
//! spans.

use std::fmt;
use std::ops::Range;

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

/// A token and the byte range of its source text ([`Token::Eof`]'s is
/// empty, at the end of the input).
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned {
    /// The token.
    pub token: Token,
    /// Where its text stands in the input, in bytes.
    pub span: Range<usize>,
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

/// Tokenizes `input`, lower-casing identifiers/keywords; the last token
/// is [`Token::Eof`]. The first lexical error fails the whole input.
pub fn tokenize(input: &str) -> Result<Vec<Spanned>, String> {
    let mut tokens = Lexer::new(input).collect::<Result<Vec<_>, _>>()?;
    let end = input.len();
    tokens.push(Spanned {
        token: Token::Eof,
        span: end..end,
    });
    Ok(tokens)
}

/// Whether `buffer` ends a statement, as the shell reads its input: it
/// lexes to its end outside a string literal and its last token is `;`
/// (a comment may follow it). Other lexical errors do not hold a
/// statement back: running it reports them.
pub fn ends_statement(buffer: &str) -> bool {
    let last = Lexer::new(buffer).last();
    matches!(last, Some(Ok(t)) if t.token == Token::Symbol(Sym::Semicolon))
}

/// The fingerprint of one statement's text — what
/// `snapshot_stat_statements` groups by. Built from its tokens: literals
/// become `?`, identifiers and keywords are lower-cased as the lexer
/// reads them, symbols keep their text, and there is one space wherever
/// the source had a gap (whitespace or a comment) between two tokens, or
/// where two words (identifiers or literals) touch. A `;` is not part of
/// a statement.
pub fn fingerprint(statement: &str) -> Result<String, String> {
    Ok(fingerprint_tokens(statement, &tokenize(statement)?))
}

/// The fingerprint (see [`fingerprint`]) of `tokens`, lexed from `input`.
pub(crate) fn fingerprint_tokens(input: &str, tokens: &[Spanned]) -> String {
    let word = |t: &Token| !matches!(t, Token::Symbol(_));
    let mut out = String::new();
    let mut prev: Option<&Spanned> = None;
    for t in tokens {
        let text = match &t.token {
            Token::Eof | Token::Symbol(Sym::Semicolon) => continue,
            Token::Ident(s) => s,
            Token::Symbol(_) => input.get(t.span.clone()).unwrap_or_default(),
            Token::Int(_) | Token::IntMinMagnitude | Token::Double(_) | Token::Str(_) => "?",
        };
        if prev.is_some_and(|p| p.span.end < t.span.start || (word(&p.token) && word(&t.token))) {
            out.push(' ');
        }
        out.push_str(text);
        prev = Some(t);
    }
    out
}

/// The scanner behind [`tokenize`]: yields each token with its span.
/// After an error it goes on past the offending text (an unterminated
/// string runs to the end of the input), so [`ends_statement`] can see
/// how the input ends.
struct Lexer<'a> {
    input: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    /// Whether the last token yielded was a `-`.
    after_minus: bool,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            after_minus: false,
        }
    }

    /// The character `ahead` characters past the next one.
    fn peek(&self, ahead: usize) -> Option<char> {
        self.input.get(self.pos..)?.chars().nth(ahead)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, c: char) -> bool {
        self.peek(0) == Some(c) && self.bump().is_some()
    }

    /// The source text from `start` to the next character.
    fn text(&self, start: usize) -> &'a str {
        self.input.get(start..self.pos).unwrap_or_default()
    }

    /// The rest of a string literal whose opening quote is consumed.
    fn string(&mut self) -> Result<Token, String> {
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string literal".into()),
                Some('\'') if self.eat('\'') => s.push('\''),
                Some('\'') => return Ok(Token::Str(s)),
                Some(c) => s.push(c),
            }
        }
    }

    /// The rest of a number starting at `start` (a digit, or a `.` before
    /// a digit); one `.` followed by a digit makes it a float.
    fn number(&mut self, start: usize) -> Result<Token, String> {
        let mut saw_dot = self.text(start) == ".";
        loop {
            match self.peek(0) {
                Some(c) if c.is_ascii_digit() => {}
                // `1..` would be a syntax error downstream; accept one dot.
                Some('.') if !saw_dot && self.peek(1).is_some_and(|c| c.is_ascii_digit()) => {
                    saw_dot = true;
                }
                _ => break,
            }
            self.bump();
        }
        let text = self.text(start);
        if saw_dot {
            text.parse()
                .map(Token::Double)
                .map_err(|e| format!("bad number '{text}': {e}"))
        } else if text == INT_MIN_MAGNITUDE && self.after_minus {
            Ok(Token::IntMinMagnitude)
        } else {
            int_literal(text).map(Token::Int)
        }
    }
}

impl Iterator for Lexer<'_> {
    type Item = Result<Spanned, String>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let start = self.pos;
            let c = self.bump()?;
            let sym = |s| Ok(Token::Symbol(s));
            let token = match c {
                c if c.is_whitespace() => continue,
                '-' if self.eat('-') => {
                    // Line comment.
                    while self.peek(0).is_some_and(|c| c != '\n') {
                        self.bump();
                    }
                    continue;
                }
                '(' => sym(Sym::LParen),
                ')' => sym(Sym::RParen),
                ',' => sym(Sym::Comma),
                '.' if !self.peek(0).is_some_and(|c| c.is_ascii_digit()) => sym(Sym::Dot),
                '*' => sym(Sym::Star),
                ';' => sym(Sym::Semicolon),
                '+' => sym(Sym::Plus),
                '-' => sym(Sym::Minus),
                '/' => sym(Sym::Slash),
                '=' => sym(Sym::Eq),
                '!' if self.eat('=') => sym(Sym::Neq),
                '<' if self.eat('=') => sym(Sym::Leq),
                '<' if self.eat('>') => sym(Sym::Neq),
                '<' => sym(Sym::Lt),
                '>' if self.eat('=') => sym(Sym::Geq),
                '>' => sym(Sym::Gt),
                '\'' => self.string(),
                c if c.is_ascii_digit() || c == '.' => self.number(start),
                c if c.is_alphabetic() || c == '_' => {
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        self.bump();
                    }
                    Ok(Token::Ident(self.text(start).to_lowercase()))
                }
                other => Err(format!("unexpected character '{other}'")),
            };
            self.after_minus = token == Ok(Token::Symbol(Sym::Minus));
            return Some(token.map(|token| Spanned {
                token,
                span: start..self.pos,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(input: &str) -> Result<Vec<Token>, String> {
        Ok(tokenize(input)?.into_iter().map(|t| t.token).collect())
    }

    fn fp(statement: &str) -> String {
        fingerprint(statement).unwrap()
    }

    #[test]
    fn keywords_and_identifiers_lowercased() {
        let toks = tokens("SELECT Name FROM Works").unwrap();
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
        let toks = tokens("42 3.5 .25").unwrap();
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
        let toks = tokens("-9223372036854775808").unwrap();
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
        let toks = tokens("'it''s'").unwrap();
        assert_eq!(toks, vec![Token::Str("it's".into()), Token::Eof]);
        assert!(tokenize("'unterminated").is_err());
    }

    #[test]
    fn operators() {
        let toks = tokens("a <= b <> c >= d != e").unwrap();
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
        let toks = tokens("w.name count(*)").unwrap();
        assert!(toks.contains(&Token::Symbol(Sym::Dot)));
        assert!(toks.contains(&Token::Symbol(Sym::Star)));
    }

    #[test]
    fn spans_cover_each_token_text() {
        let input = "SELECT 'a''b', x1 -- c\n<> ÄB;";
        let texts: Vec<&str> = tokenize(input)
            .unwrap()
            .iter()
            .map(|t| &input[t.span.clone()])
            .collect();
        assert_eq!(texts, ["SELECT", "'a''b'", ",", "x1", "<>", "ÄB", ";", ""]);
    }

    #[test]
    fn statements_end_at_a_semicolon_outside_strings() {
        assert!(ends_statement("SELECT 1;"));
        assert!(ends_statement("SELECT 1; -- done"));
        assert!(ends_statement("SELECT 1 FROM t\nWHERE x = 'a;b';\n"));
        assert!(!ends_statement("INSERT INTO t VALUES ('a;\n"));
        assert!(!ends_statement("SELECT 1 -- no end;"));
        assert!(!ends_statement(""));
        // Errors other than an open string are reported when it runs.
        assert!(ends_statement("SELECT @;"));
    }

    #[test]
    fn fingerprint_strips_literals_and_folds() {
        assert_eq!(
            fp("SELECT * FROM t WHERE x = 42 AND name = 'Ann';"),
            "select * from t where x = ? and name = ?"
        );
        assert_eq!(
            fp("INSERT INTO works VALUES ('Joe', 'NS', 8, 16)"),
            "insert into works values (?, ?, ?, ?)"
        );
        // Same shape, different literals -> same fingerprint.
        assert_eq!(
            fp("SELECT x FROM t WHERE ts < 10"),
            fp("select   x from t -- note\nwhere ts < 99")
        );
    }

    #[test]
    fn fingerprint_keeps_identifier_digits() {
        assert_eq!(fp("SELECT x1 FROM t2"), "select x1 from t2");
        assert_eq!(fp("SELECT a_1 FROM t"), "select a_1 from t");
        // But a number after whitespace or punctuation is a literal.
        assert_eq!(
            fp("SEQ VT AS OF 9 (SELECT x FROM t)"),
            "seq vt as of ? (select x from t)"
        );
        assert_eq!(fp("VALUES (1.5, -2, count(*))"), "values (?, -?, count(*))");
    }

    #[test]
    fn fingerprint_handles_escaped_quotes() {
        assert_eq!(
            fp("SELECT * FROM t WHERE s = 'it''s'"),
            "select * from t where s = ?"
        );
    }
}
