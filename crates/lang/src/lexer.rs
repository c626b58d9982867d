//! Hand-written lexer for the concrete syntax.
//!
//! [`Lexer`] yields one token at a time, on demand, so the parser never
//! holds more than its two tokens of lookahead. Identifiers borrow from the
//! source.
//!
//! Comments run from `#` or `//` to end of line. String literals use double
//! quotes with `\"`, `\\`, `\n`, `\t` escapes. Identifiers beginning with
//! `r_` / `w_` are ordinary identifiers at the lexical level; the parser
//! decides whether they denote special functions. Any Unicode whitespace
//! may separate tokens.

use std::fmt;

/// A lexical token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Token<'a> {
    /// Identifier or keyword (keywords are recognised by the parser through
    /// [`Token::is_kw`]), borrowed from the source.
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// String literal (unescaped contents).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `+`
    Plus,
    /// `++`
    PlusPlus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
}

impl Token<'_> {
    /// Is this the given keyword?
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if *s == kw)
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(i) => write!(f, "{i}"),
            Token::Str(s) => write!(f, "{s:?}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Comma => write!(f, ","),
            Token::Colon => write!(f, ":"),
            Token::Assign => write!(f, "="),
            Token::EqEq => write!(f, "=="),
            Token::NotEq => write!(f, "!="),
            Token::Ge => write!(f, ">="),
            Token::Gt => write!(f, ">"),
            Token::Le => write!(f, "<="),
            Token::Lt => write!(f, "<"),
            Token::Plus => write!(f, "+"),
            Token::PlusPlus => write!(f, "++"),
            Token::Minus => write!(f, "-"),
            Token::Star => write!(f, "*"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
        }
    }
}

/// A token plus its 1-based line number, for error messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spanned<'a> {
    /// The token.
    pub token: Token<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// Lexing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

/// The tokens of a source string, lexed one at a time as the iterator is
/// advanced. The iterator ends after the first error.
#[derive(Clone, Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    line: u32,
    last_line: u32,
}

impl<'a> Lexer<'a> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            pos: 0,
            line: 1,
            last_line: 0,
        }
    }

    /// The line of the last token yielded; 0 before the first.
    pub fn last_line(&self) -> u32 {
        self.last_line
    }

    /// Consume the next byte if it is `b`.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.src.as_bytes().get(self.pos) == Some(&b);
        self.pos += usize::from(hit);
        hit
    }

    /// Skip a comment: to and past the end of the line.
    fn skip_line(&mut self) {
        match self.src.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(n) => {
                self.pos += n + 1;
                self.line += 1;
            }
            None => self.pos = self.src.len(),
        }
    }

    /// End the iterator with an error at the current line.
    fn fail(&mut self, message: String) -> Result<Token<'a>, LexError> {
        self.pos = self.src.len();
        Err(LexError {
            message,
            line: self.line,
        })
    }

    /// The rest of a string literal whose opening quote was consumed,
    /// unescaped.
    fn string(&mut self) -> Result<Token<'a>, LexError> {
        let mut s = String::new();
        let mut chars = self.src[self.pos..].chars();
        loop {
            match chars.next() {
                None => return self.fail("unterminated string literal".to_owned()),
                Some('"') => break,
                Some('\\') => match chars.next() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    other => return self.fail(format!("bad escape {other:?} in string literal")),
                },
                Some('\n') => return self.fail("newline in string literal".to_owned()),
                Some(c) => s.push(c),
            }
        }
        self.pos = self.src.len() - chars.as_str().len();
        Ok(Token::Str(s))
    }

    /// Advance past the bytes from the current position that satisfy `keep`;
    /// returns the slice from `start` to the new position.
    fn take_while(&mut self, start: usize, keep: impl Fn(u8) -> bool) -> &'a str {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() && keep(bytes[self.pos]) {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    /// The next token, or `None` at the end of input.
    fn token(&mut self) -> Option<Result<Token<'a>, LexError>> {
        loop {
            let start = self.pos;
            let &b = self.src.as_bytes().get(start)?;
            self.pos += 1;
            let token = match b {
                b'\n' => {
                    self.line += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => continue,
                b'#' => {
                    self.skip_line();
                    continue;
                }
                b'/' if self.eat(b'/') => {
                    self.skip_line();
                    continue;
                }
                b'/' => Token::Slash,
                b'(' => Token::LParen,
                b')' => Token::RParen,
                b'{' => Token::LBrace,
                b'}' => Token::RBrace,
                b',' => Token::Comma,
                b':' => Token::Colon,
                b'=' if self.eat(b'=') => Token::EqEq,
                b'=' => Token::Assign,
                b'!' if self.eat(b'=') => Token::NotEq,
                b'!' => {
                    return Some(
                        self.fail("unexpected `!` (did you mean `!=` or `not`?)".to_owned()),
                    )
                }
                b'>' if self.eat(b'=') => Token::Ge,
                b'>' => Token::Gt,
                b'<' if self.eat(b'=') => Token::Le,
                b'<' => Token::Lt,
                b'+' if self.eat(b'+') => Token::PlusPlus,
                b'+' => Token::Plus,
                b'-' => Token::Minus,
                b'*' => Token::Star,
                b'%' => Token::Percent,
                b'"' => return Some(self.string()),
                b'0'..=b'9' => {
                    let n = self.take_while(start, |d| d.is_ascii_digit());
                    match n.parse() {
                        Ok(value) => Token::Int(value),
                        Err(_) => {
                            return Some(self.fail(format!("integer literal `{n}` out of range")))
                        }
                    }
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    Token::Ident(self.take_while(start, |d| d.is_ascii_alphanumeric() || d == b'_'))
                }
                _ => {
                    let c = self.src[start..].chars().next()?;
                    self.pos = start + c.len_utf8();
                    if c.is_whitespace() {
                        continue;
                    }
                    return Some(self.fail(format!("unexpected character {c:?}")));
                }
            };
            return Some(Ok(token));
        }
    }
}

impl<'a> Iterator for Lexer<'a> {
    type Item = Result<Spanned<'a>, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let token = self.token()?;
        Some(token.map(|token| {
            self.last_line = self.line;
            Spanned {
                token,
                line: self.line,
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<Spanned<'_>>, LexError> {
        Lexer::new(src).collect()
    }

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            toks("f(x) >= 10 * r_salary"),
            vec![
                Token::Ident("f"),
                Token::LParen,
                Token::Ident("x"),
                Token::RParen,
                Token::Ge,
                Token::Int(10),
                Token::Star,
                Token::Ident("r_salary"),
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let spanned = lex("a # comment\nb // another\nc").unwrap();
        assert_eq!(spanned.len(), 3);
        assert_eq!(spanned[0].line, 1);
        assert_eq!(spanned[1].line, 2);
        assert_eq!(spanned[2].line, 3);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks(r#""John \"the\" broker\n""#),
            vec![Token::Str("John \"the\" broker\n".into())]
        );
        assert!(lex("\"unterminated").is_err());
        assert!(lex("\"bad \\q escape\"").is_err());
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("== != >= > <= < = + ++ - * / %"),
            vec![
                Token::EqEq,
                Token::NotEq,
                Token::Ge,
                Token::Gt,
                Token::Le,
                Token::Lt,
                Token::Assign,
                Token::Plus,
                Token::PlusPlus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::Percent,
            ]
        );
    }

    #[test]
    fn bare_bang_is_error() {
        let err = lex("!x").unwrap_err();
        assert!(err.message.contains("!"));
    }

    #[test]
    fn unexpected_char_reports_line() {
        let err = lex("ok\n@").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn integer_overflow_is_error() {
        assert!(lex("99999999999999999999").is_err());
    }

    #[test]
    fn tokens_are_lexed_on_demand_and_end_at_an_error() {
        let mut lexer = Lexer::new("a\n\u{a0}b\u{2003}@ c");
        assert_eq!(lexer.last_line(), 0);
        assert_eq!(lexer.next().unwrap().unwrap().token, Token::Ident("a"));
        let b = lexer.next().unwrap().unwrap();
        assert_eq!(
            (b.token, b.line, lexer.last_line()),
            (Token::Ident("b"), 2, 2)
        );
        let err = lexer.next().unwrap().unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.line),
            ("unexpected character '@'", 2)
        );
        assert!(lexer.next().is_none());
    }

    #[test]
    fn error_messages_are_stable() {
        let msg = |src| lex(src).unwrap_err().message;
        assert_eq!(msg("\"abc"), "unterminated string literal");
        assert_eq!(msg("\"a\\q\""), "bad escape Some('q') in string literal");
        assert_eq!(msg("\"a\\"), "bad escape None in string literal");
        assert_eq!(msg("\"a\nb\""), "newline in string literal");
        assert_eq!(
            msg("99999999999999999999"),
            "integer literal `99999999999999999999` out of range"
        );
        assert_eq!(msg("λ"), "unexpected character 'λ'");
    }
}
