//! Recursive-descent parser.

use crate::ast::*;
use crate::lexer::{
    fingerprint_tokens, int_literal, tokenize, Spanned, Sym, Token, INT_MIN_MAGNITUDE,
};
use algebra::BinOp;
use storage::{SqlType, Value};

/// Parses one *query* statement (a query with an optional top-level
/// `ORDER BY` and optional trailing `;`).
pub fn parse_statement(input: &str) -> Result<Statement, String> {
    let mut p = Parser::new(input)?;
    let stmt = p.parse_query_statement()?;
    let _ = p.eat_symbol(Sym::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses one statement of the full dialect: a query, or one of the
/// DDL/DML commands (`CREATE TABLE`, `DROP TABLE`, `INSERT`, `DELETE`,
/// `UPDATE`). A trailing `;` is optional.
pub fn parse_sql_statement(input: &str) -> Result<SqlStatement, String> {
    let mut p = Parser::new(input)?;
    let stmt = p.parse_sql_statement()?;
    let _ = p.eat_symbol(Sym::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// One statement of a script, as [`parse_script`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedStatement {
    /// The parsed statement.
    pub statement: SqlStatement,
    /// Its source text, first token to last (no `;`), as the write-ahead
    /// log, the activity view and the slow-query log record it.
    pub text: String,
    /// Its fingerprint (see [`crate::lexer::fingerprint`]), built from the
    /// same tokens.
    pub fingerprint: String,
}

/// Parses a `;`-separated script into its statements, each with its text
/// and fingerprint, over one tokenization. Empty statements (stray
/// semicolons, comments) are skipped; the final `;` is optional.
pub fn parse_script(input: &str) -> Result<Vec<ParsedStatement>, String> {
    let mut p = Parser::new(input)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(Sym::Semicolon) {}
        if p.peek() == &Token::Eof {
            return Ok(out);
        }
        let first = p.pos;
        let statement = p.parse_sql_statement()?;
        let tokens = &p.tokens[first..p.pos];
        out.push(ParsedStatement {
            statement,
            text: source_text(input, tokens).to_string(),
            fingerprint: fingerprint_tokens(input, tokens),
        });
        if !p.eat_symbol(Sym::Semicolon) {
            p.expect_eof()?;
            return Ok(out);
        }
    }
}

/// Splits a `;`-separated script into the source text of its statements,
/// without parsing them: the `;` tokens of the lexer are the boundaries,
/// and each piece runs from its first token to its last, as
/// [`ParsedStatement::text`] does. Pieces with no token (stray
/// semicolons, comments) are dropped. A script that does not lex is one
/// piece, so running it reports the lexer's error. A piece may still fail
/// to parse.
pub fn split_script(input: &str) -> Vec<String> {
    let Ok(tokens) = tokenize(input) else {
        return vec![input.trim().to_string()];
    };
    tokens
        .split(|t| matches!(t.token, Token::Symbol(Sym::Semicolon) | Token::Eof))
        .filter(|piece| !piece.is_empty())
        .map(|piece| source_text(input, piece).to_string())
        .collect()
}

/// The source text of `tokens`, lexed from `input`: from the first one's
/// start to the last one's end.
fn source_text<'a>(input: &'a str, tokens: &[Spanned]) -> &'a str {
    match (tokens.first(), tokens.last()) {
        (Some(first), Some(last)) => input
            .get(first.span.start..last.span.end)
            .unwrap_or_default(),
        _ => "",
    }
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(input: &str) -> Result<Self, String> {
        Ok(Parser {
            tokens: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek2(&self) -> &Token {
        self.tokens
            .get(self.pos + 1)
            .map_or(&Token::Eof, |t| &t.token)
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), String> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(format!("expected '{kw}', found '{}'", self.peek()))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if self.peek() == &Token::Symbol(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> Result<(), String> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(format!("expected {s:?}, found '{}'", self.peek()))
        }
    }

    fn expect_eof(&self) -> Result<(), String> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(format!("unexpected trailing input at '{}'", self.peek()))
        }
    }

    fn expect_ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(format!("expected identifier, found '{other}'")),
        }
    }

    // ---- statements -------------------------------------------------

    fn parse_query_statement(&mut self) -> Result<Statement, String> {
        let query = self.parse_query()?;
        let order_by = if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            self.parse_order_items()?
        } else {
            Vec::new()
        };
        Ok(Statement { query, order_by })
    }

    fn parse_sql_statement(&mut self) -> Result<SqlStatement, String> {
        if self.at_keyword("create") {
            return self.parse_create_table();
        }
        if self.at_keyword("drop") {
            return self.parse_drop_table();
        }
        if self.at_keyword("insert") {
            return self.parse_insert();
        }
        if self.at_keyword("delete") {
            return self.parse_delete();
        }
        if self.at_keyword("update") {
            return self.parse_update();
        }
        if self.at_keyword("begin") {
            return self.parse_txn_statement("begin", SqlStatement::Begin);
        }
        if self.at_keyword("commit") {
            return self.parse_txn_statement("commit", SqlStatement::Commit);
        }
        if self.at_keyword("explain") {
            self.eat_keyword("explain");
            let analyze = self.eat_keyword("analyze");
            let statement = Box::new(self.parse_query_statement()?);
            return Ok(SqlStatement::Explain { analyze, statement });
        }
        if self.at_keyword("rollback") {
            return self.parse_txn_statement("rollback", SqlStatement::Rollback);
        }
        if self.at_keyword("set") {
            return self.parse_set();
        }
        Ok(SqlStatement::Query(self.parse_query_statement()?))
    }

    /// `SET <name> [= | TO] <value>` — the value is a number, identifier,
    /// or string literal, carried to the session layer as raw text.
    fn parse_set(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("set")?;
        let name = self.expect_ident()?;
        if !self.eat_symbol(Sym::Eq) {
            let _ = self.eat_keyword("to");
        }
        let negated = self.eat_symbol(Sym::Minus);
        let value = match self.bump() {
            Token::Int(i) => (if negated { -i } else { i }).to_string(),
            Token::IntMinMagnitude if negated => i64::MIN.to_string(),
            Token::Double(d) => (if negated { -d } else { d }).to_string(),
            Token::Str(s) if !negated => s,
            Token::Ident(s) if !negated => s,
            other => return Err(format!("expected a SET value, found '{other}'")),
        };
        Ok(SqlStatement::Set { name, value })
    }

    /// `BEGIN`/`COMMIT`/`ROLLBACK`, each tolerating an optional
    /// `TRANSACTION` or `WORK` noise word.
    fn parse_txn_statement(
        &mut self,
        keyword: &str,
        stmt: SqlStatement,
    ) -> Result<SqlStatement, String> {
        self.expect_keyword(keyword)?;
        if !self.eat_keyword("transaction") {
            let _ = self.eat_keyword("work");
        }
        Ok(stmt)
    }

    fn parse_create_table(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let name = self.expect_ident()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.expect_ident()?;
            let ty = self.parse_sql_type()?;
            columns.push(ColumnDef { name: col, ty });
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_symbol(Sym::RParen)?;
        let period = if self.eat_keyword("period") {
            self.expect_symbol(Sym::LParen)?;
            let b = self.expect_ident()?;
            self.expect_symbol(Sym::Comma)?;
            let e = self.expect_ident()?;
            self.expect_symbol(Sym::RParen)?;
            Some((b, e))
        } else {
            None
        };
        Ok(SqlStatement::CreateTable {
            name,
            columns,
            period,
        })
    }

    fn parse_sql_type(&mut self) -> Result<SqlType, String> {
        let word = self.expect_ident()?;
        match word.as_str() {
            "int" | "integer" | "bigint" => Ok(SqlType::Int),
            "double" | "float" | "real" => Ok(SqlType::Double),
            "text" | "string" | "varchar" | "char" => Ok(SqlType::Str),
            "bool" | "boolean" => Ok(SqlType::Bool),
            other => Err(format!("unknown column type '{other}'")),
        }
    }

    fn parse_drop_table(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("drop")?;
        self.expect_keyword("table")?;
        let if_exists = if self.at_keyword("if") {
            self.bump();
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        Ok(SqlStatement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let source = if self.at_keyword("values") {
            self.bump();
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Sym::LParen)?;
                let mut row = vec![self.parse_expr()?];
                while self.eat_symbol(Sym::Comma) {
                    row.push(self.parse_expr()?);
                }
                self.expect_symbol(Sym::RParen)?;
                rows.push(row);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(Box::new(self.parse_query_statement()?))
        };
        Ok(SqlStatement::Insert { table, source })
    }

    fn parse_delete(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("delete")?;
        self.expect_keyword("from")?;
        let table = self.expect_ident()?;
        let where_clause = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SqlStatement::Delete {
            table,
            where_clause,
        })
    }

    fn parse_update(&mut self) -> Result<SqlStatement, String> {
        self.expect_keyword("update")?;
        let table = self.expect_ident()?;
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.expect_ident()?;
            self.expect_symbol(Sym::Eq)?;
            assignments.push((col, self.parse_expr()?));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SqlStatement::Update {
            table,
            assignments,
            where_clause,
        })
    }

    // ---- queries ----------------------------------------------------

    fn parse_query(&mut self) -> Result<QueryExpr, String> {
        let mut left = self.parse_query_primary()?;
        loop {
            if self.at_keyword("union") {
                self.bump();
                self.expect_keyword("all")?;
                let right = self.parse_query_primary()?;
                left = QueryExpr::UnionAll(Box::new(left), Box::new(right));
            } else if self.at_keyword("except") {
                self.bump();
                self.expect_keyword("all")?;
                let right = self.parse_query_primary()?;
                left = QueryExpr::ExceptAll(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_query_primary(&mut self) -> Result<QueryExpr, String> {
        if self.at_keyword("seq") {
            self.bump();
            self.expect_keyword("vt")?;
            let window = if self.at_keyword("as") {
                self.bump();
                self.expect_keyword("of")?;
                SeqWindow::AsOf(self.parse_time_literal()?)
            } else if self.at_keyword("between") {
                self.bump();
                let t1 = self.parse_time_literal()?;
                self.expect_keyword("and")?;
                let t2 = self.parse_time_literal()?;
                SeqWindow::Between(t1, t2)
            } else {
                SeqWindow::Full
            };
            self.expect_symbol(Sym::LParen)?;
            let inner = self.parse_query()?;
            self.expect_symbol(Sym::RParen)?;
            return Ok(QueryExpr::SeqVt(Box::new(inner), window));
        }
        if self.eat_symbol(Sym::LParen) {
            let inner = self.parse_query()?;
            self.expect_symbol(Sym::RParen)?;
            return Ok(inner);
        }
        Ok(QueryExpr::Select(Box::new(self.parse_select()?)))
    }

    fn parse_select(&mut self) -> Result<SelectStmt, String> {
        self.expect_keyword("select")?;
        let mut items = vec![self.parse_select_item()?];
        while self.eat_symbol(Sym::Comma) {
            items.push(self.parse_select_item()?);
        }
        let mut stmt = SelectStmt {
            items,
            ..Default::default()
        };
        if self.eat_keyword("from") {
            stmt.from.push(self.parse_from_item()?);
            while self.eat_symbol(Sym::Comma) {
                stmt.from.push(self.parse_from_item()?);
            }
        }
        if self.eat_keyword("where") {
            stmt.where_clause = Some(self.parse_expr()?);
        }
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            stmt.group_by.push(self.parse_expr()?);
            while self.eat_symbol(Sym::Comma) {
                stmt.group_by.push(self.parse_expr()?);
            }
        }
        if self.eat_keyword("having") {
            stmt.having = Some(self.parse_expr()?);
        }
        Ok(stmt)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, String> {
        if self.eat_symbol(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if let (Token::Ident(t), Token::Symbol(Sym::Dot)) = (self.peek(), self.peek2()) {
            if self.tokens.get(self.pos + 2).map(|t| &t.token) == Some(&Token::Symbol(Sym::Star)) {
                let t = t.clone();
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(t));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("as")
            || matches!(self.peek(), Token::Ident(s) if !is_reserved(s))
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_from_item(&mut self) -> Result<FromItem, String> {
        let mut item = self.parse_from_primary()?;
        loop {
            let inner = self.at_keyword("inner");
            if inner || self.at_keyword("join") {
                if inner {
                    self.bump();
                }
                self.expect_keyword("join")?;
                let right = self.parse_from_primary()?;
                self.expect_keyword("on")?;
                let on = self.parse_expr()?;
                item = FromItem::Join {
                    left: Box::new(item),
                    right: Box::new(right),
                    on,
                };
            } else {
                return Ok(item);
            }
        }
    }

    fn parse_from_primary(&mut self) -> Result<FromItem, String> {
        if self.eat_symbol(Sym::LParen) {
            let query = self.parse_query()?;
            self.expect_symbol(Sym::RParen)?;
            let _ = self.eat_keyword("as");
            let alias = self.expect_ident()?;
            return Ok(FromItem::Subquery { query, alias });
        }
        let name = self.expect_ident()?;
        // PERIOD (b, e)
        let period = if self.at_keyword("period") {
            self.bump();
            self.expect_symbol(Sym::LParen)?;
            let b = self.expect_ident()?;
            self.expect_symbol(Sym::Comma)?;
            let e = self.expect_ident()?;
            self.expect_symbol(Sym::RParen)?;
            Some((b, e))
        } else {
            None
        };
        let alias = if self.eat_keyword("as")
            || matches!(self.peek(), Token::Ident(s) if !is_reserved(s))
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(FromItem::Table {
            name,
            alias,
            period,
        })
    }

    /// An integer time-point literal, with optional leading minus.
    fn parse_time_literal(&mut self) -> Result<i64, String> {
        let negated = self.eat_symbol(Sym::Minus);
        match self.bump() {
            Token::Int(i) => Ok(if negated { -i } else { i }),
            Token::IntMinMagnitude if negated => Ok(i64::MIN),
            other => Err(format!("expected an integer time point, found '{other}'")),
        }
    }

    fn parse_order_items(&mut self) -> Result<Vec<OrderItem>, String> {
        let mut items = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let asc = if self.eat_keyword("desc") {
                false
            } else {
                let _ = self.eat_keyword("asc");
                true
            };
            items.push(OrderItem { expr, asc });
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(items)
    }

    // ---- expressions (precedence climbing) ---------------------------

    fn parse_expr(&mut self) -> Result<AstExpr, String> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<AstExpr, String> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("or") {
            let right = self.parse_and()?;
            left = AstExpr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<AstExpr, String> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("and") {
            let right = self.parse_not()?;
            left = AstExpr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<AstExpr, String> {
        if self.eat_keyword("not") {
            Ok(AstExpr::Not(Box::new(self.parse_not()?)))
        } else {
            self.parse_comparison()
        }
    }

    fn parse_comparison(&mut self) -> Result<AstExpr, String> {
        let left = self.parse_additive()?;

        // Postfix predicates: IS [NOT] NULL, [NOT] LIKE / BETWEEN / IN.
        if self.at_keyword("is") {
            self.bump();
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.at_keyword("not")
            && matches!(self.peek2(), Token::Ident(s) if s == "like" || s == "between" || s == "in")
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_keyword("like") {
            let pattern = match self.bump() {
                Token::Str(s) => s,
                other => return Err(format!("LIKE requires a string literal, found '{other}'")),
            };
            return Ok(AstExpr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_keyword("between") {
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(AstExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("in") {
            self.expect_symbol(Sym::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_symbol(Sym::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_symbol(Sym::RParen)?;
            return Ok(AstExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err("dangling NOT".into());
        }

        let op = match self.peek() {
            Token::Symbol(Sym::Eq) => Some(BinOp::Eq),
            Token::Symbol(Sym::Neq) => Some(BinOp::Neq),
            Token::Symbol(Sym::Lt) => Some(BinOp::Lt),
            Token::Symbol(Sym::Leq) => Some(BinOp::Leq),
            Token::Symbol(Sym::Gt) => Some(BinOp::Gt),
            Token::Symbol(Sym::Geq) => Some(BinOp::Geq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<AstExpr, String> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Plus) => BinOp::Add,
                Token::Symbol(Sym::Minus) => BinOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_multiplicative(&mut self) -> Result<AstExpr, String> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Symbol(Sym::Star) => BinOp::Mul,
                Token::Symbol(Sym::Slash) => BinOp::Div,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_unary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn parse_unary(&mut self) -> Result<AstExpr, String> {
        if self.eat_symbol(Sym::Minus) {
            if self.peek() == &Token::IntMinMagnitude {
                self.bump();
                return Ok(AstExpr::Lit(Value::Int(i64::MIN)));
            }
            let inner = self.parse_unary()?;
            return Ok(AstExpr::Binary {
                op: BinOp::Sub,
                left: Box::new(AstExpr::Lit(Value::Int(0))),
                right: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<AstExpr, String> {
        match self.bump() {
            Token::Int(i) => Ok(AstExpr::Lit(Value::Int(i))),
            // Out of range without the minus `parse_unary` folds in.
            Token::IntMinMagnitude => Err(int_literal(INT_MIN_MAGNITUDE).unwrap_err()),
            Token::Double(d) => Ok(AstExpr::Lit(Value::Double(d))),
            Token::Str(s) => Ok(AstExpr::Lit(Value::str(s))),
            Token::Symbol(Sym::LParen) => {
                let e = self.parse_expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => match word.as_str() {
                "null" => Ok(AstExpr::Lit(Value::Null)),
                "true" => Ok(AstExpr::Lit(Value::Bool(true))),
                "false" => Ok(AstExpr::Lit(Value::Bool(false))),
                "case" => self.parse_case(),
                _ if self.peek() == &Token::Symbol(Sym::LParen) => {
                    // Function call.
                    self.bump();
                    if self.eat_symbol(Sym::Star) {
                        self.expect_symbol(Sym::RParen)?;
                        return Ok(AstExpr::Func {
                            name: word,
                            args: vec![],
                            star: true,
                        });
                    }
                    let mut args = Vec::new();
                    if self.peek() != &Token::Symbol(Sym::RParen) {
                        args.push(self.parse_expr()?);
                        while self.eat_symbol(Sym::Comma) {
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect_symbol(Sym::RParen)?;
                    Ok(AstExpr::Func {
                        name: word,
                        args,
                        star: false,
                    })
                }
                _ if is_reserved(&word) => {
                    Err(format!("unexpected keyword '{word}' in expression"))
                }
                _ if self.peek() == &Token::Symbol(Sym::Dot) => {
                    self.bump();
                    let name = self.expect_ident()?;
                    Ok(AstExpr::Column {
                        table: Some(word),
                        name,
                    })
                }
                _ => Ok(AstExpr::Column {
                    table: None,
                    name: word,
                }),
            },
            other => Err(format!("unexpected token '{other}' in expression")),
        }
    }

    fn parse_case(&mut self) -> Result<AstExpr, String> {
        let mut branches = Vec::new();
        while self.eat_keyword("when") {
            let cond = self.parse_expr()?;
            self.expect_keyword("then")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err("CASE requires at least one WHEN branch".into());
        }
        let else_expr = if self.eat_keyword("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("end")?;
        Ok(AstExpr::Case {
            branches,
            else_expr,
        })
    }
}

/// Words that terminate an implicit alias position.
fn is_reserved(word: &str) -> bool {
    matches!(
        word,
        "select"
            | "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "by"
            | "union"
            | "except"
            | "all"
            | "join"
            | "inner"
            | "on"
            | "as"
            | "and"
            | "or"
            | "not"
            | "like"
            | "between"
            | "in"
            | "is"
            | "null"
            | "case"
            | "when"
            | "then"
            | "else"
            | "end"
            | "seq"
            | "vt"
            | "of"
            | "period"
            | "asc"
            | "desc"
            | "create"
            | "table"
            | "drop"
            | "if"
            | "exists"
            | "insert"
            | "into"
            | "values"
            | "delete"
            | "update"
            | "set"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_onduty_parses() {
        let stmt = parse_statement(
            "SEQ VT (SELECT count(*) AS cnt FROM works PERIOD (ts, te) WHERE skill = 'SP')",
        )
        .unwrap();
        let QueryExpr::SeqVt(inner, window) = stmt.query else {
            panic!("expected SEQ VT");
        };
        assert_eq!(window, SeqWindow::Full);
        let QueryExpr::Select(sel) = *inner else {
            panic!("expected SELECT");
        };
        assert_eq!(sel.items.len(), 1);
        assert!(sel.where_clause.is_some());
        match &sel.from[0] {
            FromItem::Table { name, period, .. } => {
                assert_eq!(name, "works");
                assert_eq!(period, &Some(("ts".into(), "te".into())));
            }
            other => panic!("expected table, got {other:?}"),
        }
    }

    #[test]
    fn q_skillreq_parses() {
        let stmt = parse_statement(
            "SEQ VT (SELECT skill FROM assign PERIOD (ts, te) \
             EXCEPT ALL SELECT skill FROM works PERIOD (ts, te))",
        )
        .unwrap();
        let QueryExpr::SeqVt(inner, _) = stmt.query else {
            panic!("expected SEQ VT");
        };
        assert!(matches!(*inner, QueryExpr::ExceptAll(_, _)));
    }

    #[test]
    fn seq_vt_windows_parse() {
        let stmt = parse_statement("SEQ VT AS OF 7 (SELECT name FROM works)").unwrap();
        let QueryExpr::SeqVt(_, window) = stmt.query else {
            panic!("expected SEQ VT");
        };
        assert_eq!(window, SeqWindow::AsOf(7));

        let stmt = parse_statement("SEQ VT BETWEEN -2 AND 9 (SELECT name FROM works)").unwrap();
        let QueryExpr::SeqVt(_, window) = stmt.query else {
            panic!("expected SEQ VT");
        };
        assert_eq!(window, SeqWindow::Between(-2, 9));

        assert!(parse_statement("SEQ VT AS OF x (SELECT 1 FROM t)").is_err());
        assert!(parse_statement("SEQ VT BETWEEN 1 (SELECT 1 FROM t)").is_err());
    }

    #[test]
    fn create_table_parses() {
        let stmt = parse_sql_statement(
            "CREATE TABLE works (name TEXT, skill TEXT, ts INT, te INT) PERIOD (ts, te)",
        )
        .unwrap();
        let SqlStatement::CreateTable {
            name,
            columns,
            period,
        } = stmt
        else {
            panic!("expected CREATE TABLE");
        };
        assert_eq!(name, "works");
        assert_eq!(columns.len(), 4);
        assert_eq!(columns[0].name, "name");
        assert_eq!(columns[0].ty, SqlType::Str);
        assert_eq!(columns[2].ty, SqlType::Int);
        assert_eq!(period, Some(("ts".into(), "te".into())));

        assert!(parse_sql_statement("CREATE TABLE t (x blob)").is_err());
    }

    #[test]
    fn drop_insert_delete_update_parse() {
        assert_eq!(
            parse_sql_statement("DROP TABLE IF EXISTS t;").unwrap(),
            SqlStatement::DropTable {
                name: "t".into(),
                if_exists: true
            }
        );

        let SqlStatement::Insert { table, source } = parse_sql_statement(
            "INSERT INTO works VALUES ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16)",
        )
        .unwrap() else {
            panic!("expected INSERT");
        };
        assert_eq!(table, "works");
        let InsertSource::Values(rows) = source else {
            panic!("expected VALUES");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 4);

        let SqlStatement::Insert { source, .. } =
            parse_sql_statement("INSERT INTO archive SELECT * FROM works WHERE te <= 10").unwrap()
        else {
            panic!()
        };
        assert!(matches!(source, InsertSource::Query(_)));

        let SqlStatement::Delete {
            table,
            where_clause,
        } = parse_sql_statement("DELETE FROM works WHERE name = 'Joe'").unwrap()
        else {
            panic!("expected DELETE");
        };
        assert_eq!(table, "works");
        assert!(where_clause.is_some());

        let SqlStatement::Update {
            table,
            assignments,
            where_clause,
        } = parse_sql_statement("UPDATE works SET skill = 'NS', te = te + 1 WHERE name = 'Ann'")
            .unwrap()
        else {
            panic!("expected UPDATE");
        };
        assert_eq!(table, "works");
        assert_eq!(assignments.len(), 2);
        assert_eq!(assignments[0].0, "skill");
        assert!(where_clause.is_some());
    }

    #[test]
    fn scripts_split_on_semicolons() {
        let script =
            "CREATE TABLE t (x INT);\n-- a comment\nINSERT INTO t VALUES (1);;\nSELECT x FROM t;";
        let stmts = parse_script(script).unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(matches!(
            stmts[0].statement,
            SqlStatement::CreateTable { .. }
        ));
        assert!(matches!(stmts[1].statement, SqlStatement::Insert { .. }));
        assert!(matches!(stmts[2].statement, SqlStatement::Query(_)));
        assert_eq!(stmts[1].text, "INSERT INTO t VALUES (1)");
        assert_eq!(stmts[1].fingerprint, "insert into t values (?)");

        // Missing semicolon between statements is an error.
        assert!(parse_script("SELECT 1 FROM t SELECT 2 FROM t").is_err());
        assert!(parse_script("").unwrap().is_empty());
    }

    #[test]
    fn transaction_statements_parse() {
        for (sql, want) in [
            ("BEGIN", SqlStatement::Begin),
            ("begin transaction;", SqlStatement::Begin),
            ("BEGIN WORK", SqlStatement::Begin),
            ("COMMIT", SqlStatement::Commit),
            ("commit work;", SqlStatement::Commit),
            ("ROLLBACK", SqlStatement::Rollback),
            ("ROLLBACK TRANSACTION", SqlStatement::Rollback),
        ] {
            assert_eq!(parse_sql_statement(sql).unwrap(), want, "{sql}");
        }
        // Trailing garbage is rejected, not ignored.
        assert!(parse_sql_statement("BEGIN now").is_err());
        assert!(parse_sql_statement("COMMIT 5").is_err());
    }

    #[test]
    fn set_statements_parse() {
        let set = |name: &str, value: &str| SqlStatement::Set {
            name: name.into(),
            value: value.into(),
        };
        for (sql, want) in [
            (
                "SET statement_timeout = 500",
                set("statement_timeout", "500"),
            ),
            (
                "set statement_timeout to 500;",
                set("statement_timeout", "500"),
            ),
            (
                "SET max_rows_scanned 10000",
                set("max_rows_scanned", "10000"),
            ),
            (
                "SET statement_timeout = off",
                set("statement_timeout", "off"),
            ),
            (
                "SET slow_log_capacity TO '64'",
                set("slow_log_capacity", "64"),
            ),
            ("SET x = -3", set("x", "-3")),
        ] {
            assert_eq!(parse_sql_statement(sql).unwrap(), want, "{sql}");
        }
        assert!(parse_sql_statement("SET").is_err());
        assert!(parse_sql_statement("SET statement_timeout =").is_err());
        assert!(parse_sql_statement("SET x = 1 2").is_err());
        assert!(parse_sql_statement("SET x = -off").is_err());
    }

    #[test]
    fn split_script_respects_strings_and_comments() {
        let script = "-- header comment\n\
                      INSERT INTO t VALUES ('a; b', 'it''s; fine'); -- tail; comment\n\
                      SELECT x FROM t;\n\
                      ;;\n\
                      -- only a comment\n\
                      DELETE FROM t";
        let pieces = split_script(script);
        assert_eq!(
            pieces,
            vec![
                "INSERT INTO t VALUES ('a; b', 'it''s; fine')",
                "SELECT x FROM t",
                "DELETE FROM t",
            ]
        );
        assert!(split_script("  \n-- nothing\n").is_empty());

        // The split agrees with the parser: the pieces are the texts it
        // reports, and piece-wise parsing equals whole-script parsing.
        let whole = parse_script(script).unwrap();
        let texts: Vec<&str> = whole.iter().map(|s| s.text.as_str()).collect();
        assert_eq!(pieces, texts);
        let piecewise: Vec<SqlStatement> = pieces
            .iter()
            .map(|s| parse_sql_statement(s).unwrap())
            .collect();
        let statements: Vec<SqlStatement> = whole.into_iter().map(|s| s.statement).collect();
        assert_eq!(statements, piecewise);

        // A `--` inside a string literal is string text, not a comment,
        // wherever its line starts.
        let script = "INSERT INTO t VALUES ('a\n-- b');\n-- c\nSELECT x FROM t -- d\n;";
        assert_eq!(
            split_script(script),
            ["INSERT INTO t VALUES ('a\n-- b')", "SELECT x FROM t"]
        );
        // A script that does not lex is one piece.
        assert_eq!(split_script(" SELECT 'a; "), ["SELECT 'a;"]);
    }

    #[test]
    fn joins_and_aliases() {
        let stmt = parse_statement(
            "SELECT w.name, a.mach FROM works w JOIN assign a ON w.skill = a.skill \
             WHERE w.name <> 'Joe' ORDER BY w.name DESC",
        )
        .unwrap();
        assert_eq!(stmt.order_by.len(), 1);
        assert!(!stmt.order_by[0].asc);
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        assert!(matches!(&sel.from[0], FromItem::Join { .. }));
    }

    #[test]
    fn group_by_having_subquery() {
        let stmt = parse_statement(
            "SELECT cnt FROM (SELECT dept, count(*) AS cnt FROM emp GROUP BY dept \
             HAVING count(*) > 21) sub",
        )
        .unwrap();
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        match &sel.from[0] {
            FromItem::Subquery { alias, .. } => assert_eq!(alias, "sub"),
            other => panic!("expected subquery, got {other:?}"),
        }
    }

    #[test]
    fn between_in_like_case() {
        let stmt = parse_statement(
            "SELECT CASE WHEN x BETWEEN 1 AND 5 THEN 'lo' ELSE 'hi' END \
             FROM t WHERE mode IN ('MAIL','SHIP') AND name NOT LIKE 'A%'",
        )
        .unwrap();
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        assert!(sel.where_clause.is_some());
    }

    #[test]
    fn arithmetic_precedence() {
        let stmt = parse_statement("SELECT 1 + 2 * 3 FROM t").unwrap();
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &sel.items[0] else {
            panic!()
        };
        // 1 + (2 * 3)
        match expr {
            AstExpr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(**right, AstExpr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("SELECT FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t WHERE x LIKE y").is_err());
        assert!(parse_statement("SELECT * FROM t extra garbage !!").is_err());
        assert!(parse_statement("SEQ VT SELECT 1").is_err());
    }

    #[test]
    fn the_smallest_int_is_written_only_under_a_minus() {
        const MIN: &str = "-9223372036854775808";
        let stmt = parse_statement(&format!("SELECT {MIN} FROM t")).unwrap();
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        assert!(matches!(
            &sel.items[0],
            SelectItem::Expr {
                expr: AstExpr::Lit(Value::Int(i64::MIN)),
                ..
            }
        ));
        let stmt =
            parse_statement(&format!("SEQ VT BETWEEN {MIN} AND 0 (SELECT 1 FROM t)")).unwrap();
        let QueryExpr::SeqVt(_, window) = stmt.query else {
            panic!("expected SEQ VT");
        };
        assert_eq!(window, SeqWindow::Between(i64::MIN, 0));
        assert_eq!(
            parse_sql_statement(&format!("SET max_rows_scanned = {MIN}")).unwrap(),
            SqlStatement::Set {
                name: "max_rows_scanned".into(),
                value: MIN.into()
            }
        );
        // Anywhere but directly under a minus, the magnitude is refused
        // as before.
        let refused = "bad number '9223372036854775808': number too large to fit in target type";
        for sql in [
            "SELECT 9223372036854775808 FROM t",
            "SELECT 1 -9223372036854775808 FROM t",
            "SEQ VT AS OF 9223372036854775808 (SELECT 1 FROM t)",
        ] {
            assert_eq!(parse_statement(sql).unwrap_err(), refused, "{sql}");
        }
    }

    #[test]
    fn unary_minus() {
        let stmt = parse_statement("SELECT -5 FROM t").unwrap();
        let QueryExpr::Select(sel) = stmt.query else {
            panic!()
        };
        assert!(matches!(
            &sel.items[0],
            SelectItem::Expr {
                expr: AstExpr::Binary { op: BinOp::Sub, .. },
                ..
            }
        ));
    }
}
