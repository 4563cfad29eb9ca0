//! Text syntax for rules: tokenizer, recursive-descent parser, validation.
//!
//! The grammar matches the `Display` output of the AST, so
//! `parse_rules(ruleset.to_string())` round-trips. Example:
//!
//! ```text
//! rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
//! rule r2: sum(fine) == total_ingress;
//! rule r3: ecn_bytes > 0 => max(fine) >= 30;
//! ```
//!
//! Precedence (loosest to tightest): `=>` (right-assoc), `or`, `and`,
//! `not` / quantifiers, comparison, `+`/`-`, `*`. `forall t:` / `exists t:`
//! bind their entire remaining predicate at the point they appear.

use std::fmt;

use lejit_telemetry::CoarseField;

use crate::ast::{CmpOp, Expr, Pred, Rule, RuleSet};

/// A parse or validation error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Plus,
    Minus,
    Star,
    Arrow, // =>
    Cmp(CmpOp),
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '#' => {
                // Comment to end of line.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBracket, i));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBracket, i));
                i += 1;
            }
            ';' => {
                out.push((Tok::Semi, i));
                i += 1;
            }
            ':' => {
                out.push((Tok::Colon, i));
                i += 1;
            }
            '+' => {
                out.push((Tok::Plus, i));
                i += 1;
            }
            '-' => {
                out.push((Tok::Minus, i));
                i += 1;
            }
            '*' => {
                out.push((Tok::Star, i));
                i += 1;
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push((Tok::Arrow, i));
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Cmp(CmpOp::Eq), i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: i,
                        message: "expected `==` or `=>`".into(),
                    });
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Cmp(CmpOp::Ne), i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        offset: i,
                        message: "expected `!=`".into(),
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Cmp(CmpOp::Le), i));
                    i += 2;
                } else {
                    out.push((Tok::Cmp(CmpOp::Lt), i));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((Tok::Cmp(CmpOp::Ge), i));
                    i += 2;
                } else {
                    out.push((Tok::Cmp(CmpOp::Gt), i));
                    i += 1;
                }
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i].parse().map_err(|e| ParseError {
                    offset: start,
                    message: format!("bad integer: {e}"),
                })?;
                out.push((Tok::Int(n), start));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push((Tok::Ident(src[start..i].to_string()), start));
            }
            other => {
                return Err(ParseError {
                    offset: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(out)
}

/// Deepest nesting (parentheses, `not`, quantifiers, `=>` chains) a rule may
/// have. The parser recurses once per level and rule text can arrive from
/// the network (`lejit-serve`'s inline `rules`): unbounded, a line of
/// parentheses overflows the reading thread's stack and aborts the process.
/// Mined and hand-written rules nest a handful of levels.
const MAX_DEPTH: usize = 64;

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    src_len: usize,
    /// Open [`Self::nested`] levels.
    depth: usize,
}

impl Parser {
    /// Runs one level of recursive descent, refusing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        level: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let out = level(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, o)| o)
            .unwrap_or(self.src_len)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn expect_ident(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == kw => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected `{kw}`"))),
        }
    }

    // rules := rule*
    fn rules(&mut self) -> Result<RuleSet, ParseError> {
        let mut rules = Vec::new();
        while self.peek().is_some() {
            rules.push(self.rule()?);
        }
        Ok(RuleSet::new(rules))
    }

    // rule := "rule" IDENT ":" pred ";"
    fn rule(&mut self) -> Result<Rule, ParseError> {
        self.expect_ident("rule")?;
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            _ => return Err(self.err("expected rule name")),
        };
        self.expect(&Tok::Colon, "`:`")?;
        let pred = self.pred()?;
        self.expect(&Tok::Semi, "`;`")?;
        validate_pred(&pred, false).map_err(|message| ParseError {
            offset: self.offset(),
            message: format!("in rule `{name}`: {message}"),
        })?;
        Ok(Rule::new(name, pred))
    }

    // pred := or ("=>" pred)?
    //
    // Every cycle through the grammar holds a `nested` level open: `=>`,
    // parentheses and quantifiers re-enter here, `not` re-enters
    // `unary_pred`, a parenthesized expression re-enters `factor`.
    fn pred(&mut self) -> Result<Pred, ParseError> {
        self.nested(Self::pred_level)
    }

    fn pred_level(&mut self) -> Result<Pred, ParseError> {
        let lhs = self.or_pred()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.pos += 1;
            let rhs = self.pred()?;
            Ok(Pred::Implies(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn or_pred(&mut self) -> Result<Pred, ParseError> {
        let mut kids = vec![self.and_pred()?];
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "or") {
            self.pos += 1;
            kids.push(self.and_pred()?);
        }
        Ok(if kids.len() == 1 {
            kids.pop().unwrap()
        } else {
            Pred::Or(kids)
        })
    }

    fn and_pred(&mut self) -> Result<Pred, ParseError> {
        let mut kids = vec![self.unary_pred()?];
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "and") {
            self.pos += 1;
            kids.push(self.unary_pred()?);
        }
        Ok(if kids.len() == 1 {
            kids.pop().unwrap()
        } else {
            Pred::And(kids)
        })
    }

    fn unary_pred(&mut self) -> Result<Pred, ParseError> {
        self.nested(Self::unary_pred_level)
    }

    fn unary_pred_level(&mut self) -> Result<Pred, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if s == "not" => {
                self.pos += 1;
                Ok(Pred::Not(Box::new(self.unary_pred()?)))
            }
            Some(Tok::Ident(s)) if s == "forall" || s == "exists" => {
                let forall = s == "forall";
                self.pos += 1;
                self.expect_ident("t")?;
                self.expect(&Tok::Colon, "`:`")?;
                let body = self.pred()?;
                Ok(if forall {
                    Pred::ForallT(Box::new(body))
                } else {
                    Pred::ExistsT(Box::new(body))
                })
            }
            _ => {
                // Try a comparison first; fall back to a parenthesized pred.
                let save = self.pos;
                match self.cmp_pred() {
                    Ok(p) => Ok(p),
                    Err(cmp_err) => {
                        self.pos = save;
                        if self.peek() == Some(&Tok::LParen) {
                            self.pos += 1;
                            let p = self.pred()?;
                            self.expect(&Tok::RParen, "`)`")?;
                            Ok(p)
                        } else {
                            Err(cmp_err)
                        }
                    }
                }
            }
        }
    }

    fn cmp_pred(&mut self) -> Result<Pred, ParseError> {
        let lhs = self.expr()?;
        let op = match self.bump() {
            Some(Tok::Cmp(op)) => op,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.err("expected comparison operator"));
            }
        };
        let rhs = self.expr()?;
        Ok(Pred::Cmp(op, lhs, rhs))
    }

    // expr := term (("+"|"-") term)*
    //
    // A `+` chain accumulates into a local operand list rather than merging
    // into an `Expr::Add` accumulator: a parenthesized operand that is
    // itself an `Add` (e.g. the `(0 + 0)` in `((0 + 0) + 0)`) must stay a
    // single nested element, or printing and reparsing flattens it.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        fn collapse(mut operands: Vec<Expr>) -> Expr {
            if operands.len() == 1 {
                operands.pop().unwrap()
            } else {
                Expr::Add(operands)
            }
        }
        let mut operands = vec![self.term()?];
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    operands.push(rhs);
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    let rhs = self.term()?;
                    let lhs = collapse(operands);
                    operands = vec![Expr::Sub(Box::new(lhs), Box::new(rhs))];
                }
                _ => return Ok(collapse(operands)),
            }
        }
    }

    // term := factor ("*" factor)* — each step needs a constant operand
    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut acc = self.factor()?;
        while self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            let rhs = self.factor()?;
            acc = match (&acc, &rhs) {
                (Expr::Const(c), _) => Expr::MulConst(*c, Box::new(rhs)),
                (_, Expr::Const(c)) => Expr::MulConst(*c, Box::new(acc)),
                _ => return Err(self.err("multiplication requires a constant operand")),
            };
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::factor_level)
    }

    fn factor_level(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Expr::Const(n)),
            Some(Tok::Minus) => match self.bump() {
                Some(Tok::Int(n)) => Ok(Expr::Const(-n)),
                _ => Err(self.err("expected integer after unary `-`")),
            },
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(s)) => match s.as_str() {
                "fine" => {
                    self.expect(&Tok::LBracket, "`[`")?;
                    let idx = match self.bump() {
                        Some(Tok::Int(n)) if n >= 0 => Expr::FineAt(n as usize),
                        Some(Tok::Ident(v)) if v == "t" => {
                            if self.peek() == Some(&Tok::Plus) {
                                self.pos += 1;
                                match self.bump() {
                                    Some(Tok::Int(k)) if k >= 1 => Expr::FineVarPlus(k as usize),
                                    _ => {
                                        return Err(
                                            self.err("expected offset >= 1 in `fine[t+...]`")
                                        )
                                    }
                                }
                            } else {
                                Expr::FineVar
                            }
                        }
                        _ => return Err(self.err("expected index or `t` in `fine[...]`")),
                    };
                    self.expect(&Tok::RBracket, "`]`")?;
                    Ok(idx)
                }
                "sum" | "max" | "min" => {
                    self.expect(&Tok::LParen, "`(`")?;
                    self.expect_ident("fine")?;
                    self.expect(&Tok::RParen, "`)`")?;
                    Ok(match s.as_str() {
                        "sum" => Expr::SumFine,
                        "max" => Expr::MaxFine,
                        _ => Expr::MinFine,
                    })
                }
                name => {
                    let field = CoarseField::ALL
                        .into_iter()
                        .find(|f| f.name() == name)
                        .ok_or_else(|| ParseError {
                            offset: self.offset(),
                            message: format!("unknown identifier `{name}`"),
                        })?;
                    Ok(Expr::Coarse(field))
                }
            },
            _ => Err(self.err("expected expression")),
        }
    }
}

/// Structural validation: `max`/`min` only stand alone on comparison sides
/// and on one side at a time (grounding expands an aggregate against a
/// linear bound), `fine[t]` only under a quantifier, and comparison sides
/// are otherwise linear.
fn validate_pred(p: &Pred, under_quantifier: bool) -> Result<(), String> {
    match p {
        Pred::Cmp(_, a, b) => {
            let aggregate = |e: &Expr| matches!(e, Expr::MaxFine | Expr::MinFine);
            if aggregate(a) && aggregate(b) {
                return Err("max/min on both sides of a comparison".to_string());
            }
            for side in [a, b] {
                if !aggregate(side) && !side.is_linear() {
                    return Err(format!(
                        "`{side}` mixes max/min into arithmetic; max/min must stand alone"
                    ));
                }
                if side.uses_time_var() && !under_quantifier {
                    return Err("`fine[t]` outside forall/exists".to_string());
                }
            }
            Ok(())
        }
        Pred::And(kids) | Pred::Or(kids) => kids
            .iter()
            .try_for_each(|k| validate_pred(k, under_quantifier)),
        Pred::Not(x) => validate_pred(x, under_quantifier),
        Pred::Implies(a, b) => {
            validate_pred(a, under_quantifier)?;
            validate_pred(b, under_quantifier)
        }
        Pred::ForallT(body) | Pred::ExistsT(body) => validate_pred(body, true),
    }
}

/// Parses a rule-set source text.
pub fn parse_rules(src: &str) -> Result<RuleSet, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        src_len: src.len(),
        depth: 0,
    };
    p.rules()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lejit_telemetry::CoarseSignals;

    const PAPER_RULES: &str = "
        # The paper's running example, Section 2.1.
        rule r1: forall t: fine[t] >= 0 and fine[t] <= 60;
        rule r2: sum(fine) == total_ingress;
        rule r3: ecn_bytes > 0 => max(fine) >= 30;
    ";

    fn window_100() -> CoarseSignals {
        let mut c = CoarseSignals::default();
        c.set(CoarseField::TotalIngress, 100);
        c.set(CoarseField::EcnBytes, 8);
        c
    }

    #[test]
    fn parses_paper_rules() {
        let rs = parse_rules(PAPER_RULES).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.rules[0].name, "r1");
        let c = window_100();
        assert!(rs.compliant(&c, &[20, 15, 25, 30, 10]));
        assert_eq!(rs.violations(&c, &[20, 15, 25, 70, 8]), vec!["r1", "r2"]);
    }

    #[test]
    fn display_parse_roundtrip() {
        let rs = parse_rules(PAPER_RULES).unwrap();
        let printed = rs.to_string();
        let back = parse_rules(&printed).unwrap();
        assert_eq!(back.rules, rs.rules);
    }

    #[test]
    fn arithmetic_and_precedence() {
        let rs = parse_rules(
            "rule a: 2 * egress_total + 5 <= total_ingress - drops;
             rule b: ecn_bytes > 0 and drops > 0 or retrans_bytes > 0;",
        )
        .unwrap();
        // a: (2*egress + 5) vs (total - drops)
        let mut c = CoarseSignals::default();
        c.set(CoarseField::TotalIngress, 100);
        c.set(CoarseField::EgressTotal, 40);
        c.set(CoarseField::Drops, 10);
        assert!(rs.rules[0].holds(&c, &[])); // 85 <= 90
        c.set(CoarseField::EgressTotal, 45);
        assert!(!rs.rules[0].holds(&c, &[])); // 95 > 90
                                              // b: `and` binds tighter than `or`.
        let mut c2 = CoarseSignals::default();
        c2.set(CoarseField::RetransBytes, 1);
        assert!(rs.rules[1].holds(&c2, &[]));
    }

    #[test]
    fn implication_is_right_assoc() {
        let rs = parse_rules("rule a: drops > 0 => ecn_bytes > 0 => total_ingress > 0;").unwrap();
        match &rs.rules[0].pred {
            Pred::Implies(_, rhs) => assert!(matches!(**rhs, Pred::Implies(..))),
            other => panic!("expected implication, got {other:?}"),
        }
    }

    #[test]
    fn parenthesized_predicates() {
        let rs =
            parse_rules("rule a: (drops > 0 or ecn_bytes > 0) => total_ingress >= 1;").unwrap();
        let mut c = CoarseSignals::default();
        c.set(CoarseField::Drops, 1);
        c.set(CoarseField::TotalIngress, 0);
        assert!(!rs.rules[0].holds(&c, &[]));
    }

    #[test]
    fn not_and_exists() {
        let rs = parse_rules("rule a: not (exists t: fine[t] > 50);").unwrap();
        let c = CoarseSignals::default();
        assert!(rs.rules[0].holds(&c, &[10, 20]));
        assert!(!rs.rules[0].holds(&c, &[10, 60]));
    }

    #[test]
    fn fine_literal_indices() {
        let rs = parse_rules("rule a: fine[0] <= fine[1] + 5;").unwrap();
        let c = CoarseSignals::default();
        assert!(rs.rules[0].holds(&c, &[10, 6]));
        assert!(!rs.rules[0].holds(&c, &[12, 6]));
    }

    #[test]
    fn rejects_unknown_identifier() {
        let err = parse_rules("rule a: bogus_field > 0;").unwrap_err();
        assert!(err.message.contains("bogus_field"));
    }

    #[test]
    fn nesting_is_bounded_so_hostile_text_cannot_overflow_the_stack() {
        let nested = |open: &str, close: &str, n: usize| {
            format!("rule x: {}1{} >= 0;", open.repeat(n), close.repeat(n))
        };
        assert!(parse_rules(&nested("(", ")", 20)).is_ok());
        for src in [
            nested("(", ")", 30_000),
            format!("rule x: {}1 >= 0;", "not ".repeat(15_000)),
            format!("rule x: {}1 >= 0;", "1 >= 0 => ".repeat(6_000)),
            format!("rule x: {}1 >= 0;", "forall t: ".repeat(6_000)),
        ] {
            // On a stack the size `lejit-serve` gives a connection's reader.
            let parse = move || parse_rules(&src).unwrap_err().message;
            let message = std::thread::spawn(parse).join().expect("no overflow");
            assert!(message.contains("nested deeper"), "{message}");
        }
    }

    #[test]
    fn rejects_an_aggregate_compared_with_an_aggregate() {
        // Evaluable, but grounding has no expansion for it (it panicked).
        let e = parse_rules("rule x: max(fine) >= min(fine);").unwrap_err();
        assert!(e.message.contains("both sides"), "{e}");
        assert!(parse_rules("rule x: max(fine) >= 2 * total_ingress;").is_ok());
    }

    #[test]
    fn rejects_fine_var_outside_quantifier() {
        let err = parse_rules("rule a: fine[t] > 0;").unwrap_err();
        assert!(err.message.contains("outside forall/exists"), "{err}");
    }

    #[test]
    fn rejects_nonlinear_aggregate_arithmetic() {
        let err = parse_rules("rule a: max(fine) + 1 > 0;").unwrap_err();
        assert!(err.message.contains("stand alone"), "{err}");
    }

    #[test]
    fn rejects_var_times_var() {
        let err = parse_rules("rule a: drops * drops > 0;").unwrap_err();
        assert!(err.message.contains("constant operand"), "{err}");
    }

    #[test]
    fn comments_and_whitespace() {
        let rs = parse_rules("# header\nrule a: drops >= 0; # trailing\n").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn error_position_is_reported() {
        let err = parse_rules("rule a: drops >* 0;").unwrap_err();
        assert!(err.offset > 0 && err.offset < 20);
    }
}

#[cfg(test)]
mod temporal_dsl_tests {
    use super::*;
    use lejit_telemetry::CoarseSignals;

    #[test]
    fn parses_offsets_and_roundtrips() {
        let rs = parse_rules("rule smooth: forall t: fine[t+1] - fine[t] <= 25;").unwrap();
        let c = CoarseSignals::default();
        assert!(rs.rules[0].holds(&c, &[0, 20, 40, 60]));
        assert!(!rs.rules[0].holds(&c, &[0, 30, 40, 60]));
        let text = rs.to_string();
        let back = parse_rules(&text).unwrap();
        assert_eq!(back.rules, rs.rules);
    }

    #[test]
    fn rejects_zero_offset_and_bare_plus() {
        assert!(parse_rules("rule a: forall t: fine[t+0] >= 0;").is_err());
        assert!(parse_rules("rule a: forall t: fine[t+] >= 0;").is_err());
    }

    #[test]
    fn rejects_offset_outside_quantifier() {
        let err = parse_rules("rule a: fine[t+1] >= 0;").unwrap_err();
        assert!(err.message.contains("outside forall/exists"), "{err}");
    }
}
