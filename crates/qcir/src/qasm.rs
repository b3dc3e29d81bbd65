//! OpenQASM 2.0 subset parser and writer.
//!
//! Supports the language subset the paper's benchmark circuits use
//! (Fig. 2): `OPENQASM 2.0;`, `include`, `qreg`/`creg` declarations, gate
//! applications with angle expressions (`ry(3.5902*pi) q[0];`,
//! `cx q[1],q[0];`), **custom gate definitions**
//! (`gate majority a,b,c { ... }`, expanded recursively at use sites),
//! and `barrier`/`measure`/`opaque` statements (ignored). Multiple
//! quantum registers are flattened into one contiguous qubit index space in
//! declaration order.
//!
//! # Examples
//!
//! ```
//! use bqsim_qcir::qasm;
//!
//! let src = r#"
//!     OPENQASM 2.0;
//!     include "qelib1.inc";
//!     qreg q[2];
//!     h q[0];
//!     cx q[0],q[1];
//! "#;
//! let circuit = qasm::parse(src)?;
//! assert_eq!(circuit.num_qubits(), 2);
//! assert_eq!(circuit.num_gates(), 2);
//! # Ok::<(), qasm::ParseQasmError>(())
//! ```

use crate::{Circuit, Gate, GateKind};
use core::fmt;
use std::collections::HashMap;
use std::error::Error;

/// Error produced when parsing OpenQASM source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQasmError {
    line: usize,
    message: String,
}

impl ParseQasmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseQasmError {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "qasm parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseQasmError {}

/// Parses an OpenQASM 2.0 subset program into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on unknown gates, malformed statements,
/// out-of-range qubit references, or invalid angle expressions.
pub fn parse(src: &str) -> Result<Circuit, ParseQasmError> {
    let (main_src, defs) = extract_gate_defs(src)?;
    let mut registers: Vec<(String, usize, usize)> = Vec::new(); // (name, offset, size)
    let mut reg_index: HashMap<String, usize> = HashMap::new();
    let mut total_qubits = 0usize;
    let mut gates: Vec<Gate> = Vec::new();

    for (lineno, line) in &main_src {
        let lineno = *lineno;
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let lower = stmt.to_ascii_lowercase();
            if lower.starts_with("openqasm") || lower.starts_with("include") {
                continue;
            }
            if lower.starts_with("creg")
                || lower.starts_with("barrier")
                || lower.starts_with("measure")
                || lower.starts_with("opaque")
            {
                continue;
            }
            if let Some(rest) = lower.strip_prefix("qreg") {
                let rest = rest.trim();
                let (name, size) = parse_reg_decl(rest)
                    .ok_or_else(|| ParseQasmError::new(lineno, format!("bad qreg: {stmt}")))?;
                if reg_index.contains_key(&name) {
                    return Err(ParseQasmError::new(
                        lineno,
                        format!("duplicate register {name}"),
                    ));
                }
                reg_index.insert(name.clone(), registers.len());
                registers.push((name, total_qubits, size));
                total_qubits += size;
                continue;
            }
            // Gate application (built-in or custom).
            let (name, params, qubits) = parse_application(
                stmt,
                lineno,
                &|arg| resolve_qubit(arg, &registers, &reg_index, lineno),
                &HashMap::new(),
            )?;
            emit_gates(&name, &params, &qubits, &defs, lineno, 0, &mut gates)?;
        }
    }

    let mut circuit = Circuit::new(total_qubits);
    for g in gates {
        if g.max_qubit() >= total_qubits {
            return Err(ParseQasmError::new(
                0,
                "gate references qubit outside declared registers",
            ));
        }
        circuit.push(g);
    }
    Ok(circuit)
}

/// A user-defined gate: formal parameter names, formal qubit arguments,
/// and the raw body statements (with their source lines).
#[derive(Debug, Clone)]
struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<(usize, String)>,
}

/// Maximum custom-gate expansion depth (guards against recursive defs).
const MAX_EXPANSION_DEPTH: usize = 32;

/// A statement paired with its 1-based source line number.
type NumberedLine = (usize, String);
/// A gate definition being collected: (start line, header, body lines).
type OpenGateDef = (usize, String, Vec<NumberedLine>);

/// Splits the source into non-definition statements (with line numbers)
/// and a map of `gate name(params) args { body }` definitions.
fn extract_gate_defs(
    src: &str,
) -> Result<(Vec<NumberedLine>, HashMap<String, GateDef>), ParseQasmError> {
    let mut main: Vec<NumberedLine> = Vec::new();
    let mut defs: HashMap<String, GateDef> = HashMap::new();
    let mut in_def: Option<OpenGateDef> = None;

    for (lineno, raw_line) in src.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        let mut rest = line.trim();
        while !rest.is_empty() {
            if let Some((start_line, header, body)) = in_def.as_mut() {
                // Collecting a body until the closing brace.
                if let Some(close) = rest.find('}') {
                    let chunk = &rest[..close];
                    if !chunk.trim().is_empty() {
                        body.push((lineno, chunk.trim().to_string()));
                    }
                    let def = finish_gate_def(*start_line, header, std::mem::take(body))?;
                    if defs.insert(def.0.clone(), def.1).is_some() {
                        return Err(ParseQasmError::new(
                            *start_line,
                            format!("duplicate gate definition `{}`", def.0),
                        ));
                    }
                    in_def = None;
                    rest = rest[close + 1..].trim();
                } else {
                    if !rest.trim().is_empty() {
                        body.push((lineno, rest.trim().to_string()));
                    }
                    rest = "";
                }
            } else if rest.to_ascii_lowercase().starts_with("gate ")
                || rest.eq_ignore_ascii_case("gate")
            {
                // Header runs until the opening brace (possibly next line).
                if let Some(open) = rest.find('{') {
                    let header = rest[4..open].trim().to_string();
                    in_def = Some((lineno, header, Vec::new()));
                    rest = rest[open + 1..].trim();
                } else {
                    // Header continues on following lines; stash as-is.
                    in_def = Some((lineno, rest[4..].trim().to_string(), Vec::new()));
                    rest = "";
                    // Mark that we are still waiting for '{' by a sentinel:
                    // handled below via header containing no '{'.
                }
            } else {
                main.push((lineno, rest.to_string()));
                rest = "";
            }
        }
    }
    if in_def.is_some() {
        return Err(ParseQasmError::new(0, "unterminated gate definition"));
    }
    Ok((main, defs))
}

/// Parses a definition header `name(p1,p2) a,b,c` and packages the body.
fn finish_gate_def(
    line: usize,
    header: &str,
    body: Vec<(usize, String)>,
) -> Result<(String, GateDef), ParseQasmError> {
    let header = header.trim();
    let (name_part, qargs_part) = match header.find(')') {
        Some(close) => (&header[..close + 1], header[close + 1..].trim()),
        None => match header.find(char::is_whitespace) {
            Some(ws) => (&header[..ws], header[ws..].trim()),
            None => (header, ""),
        },
    };
    let (name, params) = match name_part.find('(') {
        Some(open) => {
            let close = name_part
                .rfind(')')
                .ok_or_else(|| ParseQasmError::new(line, "unclosed parameter list"))?;
            let params: Vec<String> = name_part[open + 1..close]
                .split(',')
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            (name_part[..open].trim().to_string(), params)
        }
        None => (name_part.trim().to_string(), Vec::new()),
    };
    if name.is_empty() {
        return Err(ParseQasmError::new(line, "gate definition without a name"));
    }
    let qargs: Vec<String> = qargs_part
        .split(',')
        .map(|q| q.trim().to_string())
        .filter(|q| !q.is_empty())
        .collect();
    if qargs.is_empty() {
        return Err(ParseQasmError::new(
            line,
            format!("gate `{name}` declares no qubit arguments"),
        ));
    }
    Ok((
        name,
        GateDef {
            params,
            qargs,
            body,
        },
    ))
}

/// Parses one application statement into `(name, params, qubits)` using a
/// caller-supplied qubit resolver and a variable scope for expressions.
fn parse_application(
    stmt: &str,
    lineno: usize,
    resolve: &dyn Fn(&str) -> Result<usize, ParseQasmError>,
    vars: &HashMap<String, f64>,
) -> Result<(String, Vec<f64>, Vec<usize>), ParseQasmError> {
    let (head, args_str) = split_head(stmt)
        .ok_or_else(|| ParseQasmError::new(lineno, format!("malformed statement: {stmt}")))?;
    let (name, params_str) = match head.find('(') {
        Some(p) => {
            let close = head
                .rfind(')')
                .ok_or_else(|| ParseQasmError::new(lineno, "unclosed parameter list"))?;
            (head[..p].trim(), Some(&head[p + 1..close]))
        }
        None => (head.trim(), None),
    };
    let params: Vec<f64> = match params_str {
        Some(s) => s
            .split(',')
            .map(|e| match eval_expr_with(e, vars) {
                Ok(v) if v.is_finite() => Ok(v),
                Ok(v) => Err(ParseQasmError::new(
                    lineno,
                    format!("angle expression `{e}` is not finite ({v})"),
                )),
                Err(msg) => Err(ParseQasmError::new(
                    lineno,
                    format!("bad angle expression `{e}`: {msg}"),
                )),
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let qubits: Vec<usize> = args_str
        .split(',')
        .map(|a| resolve(a.trim()))
        .collect::<Result<_, _>>()?;
    for (i, q) in qubits.iter().enumerate() {
        if qubits[..i].contains(q) {
            return Err(ParseQasmError::new(
                lineno,
                format!("gate `{name}` applied to duplicate qubit {q}"),
            ));
        }
    }
    Ok((name.to_string(), params, qubits))
}

/// Emits the gates of one application, expanding custom definitions
/// recursively.
fn emit_gates(
    name: &str,
    params: &[f64],
    qubits: &[usize],
    defs: &HashMap<String, GateDef>,
    lineno: usize,
    depth: usize,
    out: &mut Vec<Gate>,
) -> Result<(), ParseQasmError> {
    if depth > MAX_EXPANSION_DEPTH {
        return Err(ParseQasmError::new(
            lineno,
            format!("gate `{name}` expands deeper than {MAX_EXPANSION_DEPTH} levels (recursive definition?)"),
        ));
    }
    if let Some(kind) = kind_from_name(name, params) {
        if kind.arity() != qubits.len() {
            return Err(ParseQasmError::new(
                lineno,
                format!(
                    "gate `{name}` expects {} qubit(s), got {}",
                    kind.arity(),
                    qubits.len()
                ),
            ));
        }
        out.push(Gate::new(kind, qubits.to_vec()));
        return Ok(());
    }
    let def = defs
        .get(name)
        .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown gate `{name}`")))?;
    if def.params.len() != params.len() {
        return Err(ParseQasmError::new(
            lineno,
            format!(
                "gate `{name}` takes {} parameter(s), got {}",
                def.params.len(),
                params.len()
            ),
        ));
    }
    if def.qargs.len() != qubits.len() {
        return Err(ParseQasmError::new(
            lineno,
            format!(
                "gate `{name}` takes {} qubit(s), got {}",
                def.qargs.len(),
                qubits.len()
            ),
        ));
    }
    let vars: HashMap<String, f64> = def
        .params
        .iter()
        .cloned()
        .zip(params.iter().copied())
        .collect();
    let qmap: HashMap<&str, usize> = def
        .qargs
        .iter()
        .map(|q| q.as_str())
        .zip(qubits.iter().copied())
        .collect();
    for (body_line, stmt) in &def.body {
        for sub in stmt.split(';') {
            let sub = sub.trim();
            if sub.is_empty() || sub.to_ascii_lowercase().starts_with("barrier") {
                continue;
            }
            let (sub_name, sub_params, sub_qubits) = parse_application(
                sub,
                *body_line,
                &|arg| {
                    qmap.get(arg).copied().ok_or_else(|| {
                        ParseQasmError::new(
                            *body_line,
                            format!("unknown qubit argument `{arg}` in gate `{name}`"),
                        )
                    })
                },
                &vars,
            )?;
            emit_gates(
                &sub_name,
                &sub_params,
                &sub_qubits,
                defs,
                *body_line,
                depth + 1,
                out,
            )?;
        }
    }
    Ok(())
}

fn parse_reg_decl(rest: &str) -> Option<(String, usize)> {
    // e.g. "q[16]"
    let open = rest.find('[')?;
    let close = rest.find(']')?;
    let name = rest[..open].trim().to_string();
    let size: usize = rest[open + 1..close].trim().parse().ok()?;
    if name.is_empty() || size == 0 {
        return None;
    }
    Some((name, size))
}

/// Splits a gate statement into its head (name + optional params) and the
/// qubit argument list, being careful that parameters may contain spaces.
fn split_head(stmt: &str) -> Option<(&str, &str)> {
    let mut depth = 0usize;
    for (i, ch) in stmt.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c.is_whitespace() && depth == 0 => {
                return Some((&stmt[..i], stmt[i..].trim()));
            }
            _ => {}
        }
    }
    None
}

fn resolve_qubit(
    arg: &str,
    registers: &[(String, usize, usize)],
    reg_index: &HashMap<String, usize>,
    lineno: usize,
) -> Result<usize, ParseQasmError> {
    let open = arg
        .find('[')
        .ok_or_else(|| ParseQasmError::new(lineno, format!("expected q[i], got `{arg}`")))?;
    let close = arg
        .find(']')
        .ok_or_else(|| ParseQasmError::new(lineno, format!("expected q[i], got `{arg}`")))?;
    let name = arg[..open].trim();
    let idx: usize = arg[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| ParseQasmError::new(lineno, format!("bad qubit index in `{arg}`")))?;
    let &reg = reg_index
        .get(name)
        .ok_or_else(|| ParseQasmError::new(lineno, format!("unknown register `{name}`")))?;
    let (_, offset, size) = &registers[reg];
    if idx >= *size {
        return Err(ParseQasmError::new(
            lineno,
            format!("qubit index {idx} out of range for register {name}[{size}]"),
        ));
    }
    Ok(offset + idx)
}

fn kind_from_name(name: &str, params: &[f64]) -> Option<GateKind> {
    use GateKind::*;
    let p = |i: usize| params.get(i).copied();
    Some(match (name, params.len()) {
        ("id", 0) => I,
        ("h", 0) => H,
        ("x", 0) => X,
        ("y", 0) => Y,
        ("z", 0) => Z,
        ("s", 0) => S,
        ("sdg", 0) => Sdg,
        ("t", 0) => T,
        ("tdg", 0) => Tdg,
        ("sx", 0) => Sx,
        ("sxdg", 0) => Sxdg,
        ("sy", 0) => Sy,
        ("sydg", 0) => Sydg,
        ("sw", 0) => Sw,
        ("swdg", 0) => Swdg,
        ("rx", 1) => Rx(p(0)?),
        ("ry", 1) => Ry(p(0)?),
        ("rz", 1) => Rz(p(0)?),
        ("p" | "u1", 1) => Phase(p(0)?),
        ("u2", 2) => U(std::f64::consts::FRAC_PI_2, p(0)?, p(1)?),
        ("u" | "u3", 3) => U(p(0)?, p(1)?, p(2)?),
        ("cx" | "cnot", 0) => Cx,
        ("cz", 0) => Cz,
        ("cp" | "cu1", 1) => Cp(p(0)?),
        ("crz", 1) => Crz(p(0)?),
        ("cry", 1) => Cry(p(0)?),
        ("crx", 1) => Crx(p(0)?),
        ("rzz", 1) => Rzz(p(0)?),
        ("rxx", 1) => Rxx(p(0)?),
        ("swap", 0) => Swap,
        ("iswap", 0) => Iswap,
        ("ccx" | "toffoli", 0) => Ccx,
        ("cswap" | "fredkin", 0) => Cswap,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Angle-expression evaluator: numbers, `pi`, + - * / ^, parentheses, unary -.
// ---------------------------------------------------------------------------

/// Evaluates an OpenQASM angle expression such as `3.5902*pi` or
/// `-pi/4 + 0.5`.
///
/// # Errors
///
/// Returns a message describing the first syntax error.
pub fn eval_expr(src: &str) -> Result<f64, String> {
    eval_expr_with(src, &HashMap::new())
}

/// Like [`eval_expr`] with a variable scope (custom-gate formal
/// parameters, e.g. `theta/2` inside a `gate rr(theta) q {...}` body).
pub fn eval_expr_with(src: &str, vars: &HashMap<String, f64>) -> Result<f64, String> {
    let tokens = tokenize(src, vars)?;
    let mut parser = ExprParser { tokens, pos: 0 };
    let v = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(format!("unexpected trailing token at {}", parser.pos));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Pi,
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
}

fn tokenize(src: &str, vars: &HashMap<String, f64>) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '^' => {
                out.push(Tok::Caret);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == '.'
                        || bytes[i] == 'e'
                        || bytes[i] == 'E'
                        || ((bytes[i] == '+' || bytes[i] == '-')
                            && i > start
                            && (bytes[i - 1] == 'e' || bytes[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let v: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
                out.push(Tok::Num(v));
            }
            c if c.is_ascii_alphabetic() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                match word.to_ascii_lowercase().as_str() {
                    "pi" => out.push(Tok::Pi),
                    _ => match vars.get(&word) {
                        Some(&v) => out.push(Tok::Num(v)),
                        None => return Err(format!("unknown identifier `{word}`")),
                    },
                }
            }
            other => return Err(format!("unexpected character `{other}`")),
        }
    }
    Ok(out)
}

struct ExprParser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<f64, String> {
        let mut v = self.term()?;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Plus => {
                    self.next();
                    v += self.term()?;
                }
                Tok::Minus => {
                    self.next();
                    v -= self.term()?;
                }
                _ => break,
            }
        }
        Ok(v)
    }

    fn term(&mut self) -> Result<f64, String> {
        let mut v = self.power()?;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Star => {
                    self.next();
                    v *= self.power()?;
                }
                Tok::Slash => {
                    self.next();
                    let d = self.power()?;
                    v /= d;
                }
                _ => break,
            }
        }
        Ok(v)
    }

    fn power(&mut self) -> Result<f64, String> {
        let base = self.unary()?;
        if matches!(self.peek(), Some(Tok::Caret)) {
            self.next();
            let exp = self.power()?; // right associative
            return Ok(base.powf(exp));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<f64, String> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.next();
                Ok(-self.unary()?)
            }
            Some(Tok::Plus) => {
                self.next();
                self.unary()
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<f64, String> {
        match self.next() {
            Some(Tok::Num(v)) => Ok(v),
            Some(Tok::Pi) => Ok(std::f64::consts::PI),
            Some(Tok::LParen) => {
                let v = self.expr()?;
                match self.next() {
                    Some(Tok::RParen) => Ok(v),
                    _ => Err("expected `)`".to_string()),
                }
            }
            other => Err(format!("unexpected token {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serialises a circuit to OpenQASM 2.0 with a single register `q`.
///
/// The output round-trips through [`parse`].
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.num_qubits()));
    for g in circuit.gates() {
        let params = g.kind().params();
        if params.is_empty() {
            out.push_str(g.kind().name());
        } else {
            // `{}` is Rust's shortest exact representation: the parsed
            // value is bit-identical to `p`, which the artifact store's
            // recompile-from-QASM audit depends on (fixed-precision
            // formatting loses ulps on small rotation angles).
            let ps: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
            out.push_str(&format!("{}({})", g.kind().name(), ps.join(",")));
        }
        let qs: Vec<String> = g.qubits().iter().map(|q| format!("q[{q}]")).collect();
        out.push_str(&format!(" {};\n", qs.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_figure2_snippet() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            cx q[2],q[0];
            cx q[1],q[0];
            h q[0];
            x q[2];
            cx q[1],q[2];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_gates(), 5);
        assert_eq!(c.gates()[0].qubits(), &[2, 0]);
        assert_eq!(c.gates()[2].kind(), &GateKind::H);
    }

    #[test]
    fn parses_angle_expressions() {
        let src = "qreg q[1]; ry(3.5902*pi) q[0]; rz(-pi/4) q[0]; p(0.5+0.25*2) q[0];";
        let c = parse(src).unwrap();
        match c.gates()[0].kind() {
            GateKind::Ry(a) => assert!((a - 3.5902 * std::f64::consts::PI).abs() < 1e-12),
            other => panic!("expected ry, got {other:?}"),
        }
        match c.gates()[1].kind() {
            GateKind::Rz(a) => assert!((a + std::f64::consts::FRAC_PI_4).abs() < 1e-12),
            other => panic!("expected rz, got {other:?}"),
        }
        match c.gates()[2].kind() {
            GateKind::Phase(a) => assert!((a - 1.0).abs() < 1e-12),
            other => panic!("expected p, got {other:?}"),
        }
    }

    #[test]
    fn multiple_registers_flatten() {
        let src = "qreg a[2]; qreg b[2]; cx a[1],b[0]; h b[1];";
        let c = parse(src).unwrap();
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.gates()[0].qubits(), &[1, 2]);
        assert_eq!(c.gates()[1].qubits(), &[3]);
    }

    #[test]
    fn ignores_creg_measure_barrier_comments() {
        let src = r#"
            qreg q[2]; creg c[2];
            h q[0]; // comment
            barrier q[0], q[1];
            measure q[0] -> c[0];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn unknown_gate_errors_with_line() {
        let err = parse("qreg q[1];\nfrobnicate q[0];").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn out_of_range_qubit_errors() {
        let err = parse("qreg q[2]; h q[5];").unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn arity_mismatch_errors() {
        let err = parse("qreg q[2]; cx q[0];").unwrap_err();
        assert!(err.to_string().contains("expects 2 qubit(s)"));
        let err = parse("qreg q[2];\ncx q[0],q[0];").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("duplicate qubit 0"), "{err}");
        let err = parse("qreg q[2];\ngate g a,b { cx a,b; }\ng q[1],q[1];").unwrap_err();
        assert_eq!(err.line(), 3);
        assert!(err.to_string().contains("duplicate qubit 1"), "{err}");
    }

    #[test]
    fn non_finite_angles_error() {
        for src in [
            "qreg q[1];\nrz(1/0) q[0];",
            "qreg q[1];\nrz(-1/0) q[0];",
            "qreg q[1];\nu3(0/0,0,0) q[0];",
            "qreg q[1];\ngate r(t) a { rz(t/0) a; }\nr(1) q[0];",
        ] {
            let err = parse(src).unwrap_err();
            assert!(err.line() >= 2, "{err}");
            assert!(err.to_string().contains("not finite"), "{src}: {err}");
        }
    }

    #[test]
    fn expr_evaluator_precedence() {
        assert!((eval_expr("1+2*3").unwrap() - 7.0).abs() < 1e-12);
        assert!((eval_expr("(1+2)*3").unwrap() - 9.0).abs() < 1e-12);
        assert!((eval_expr("2^3^2").unwrap() - 512.0).abs() < 1e-12);
        assert!((eval_expr("-pi/2").unwrap() + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((eval_expr("1e-3").unwrap() - 1e-3).abs() < 1e-15);
        assert!(eval_expr("pie").is_err());
        assert!(eval_expr("1+").is_err());
        assert!(eval_expr("(1").is_err());
    }

    #[test]
    fn custom_gate_definitions_expand() {
        let src = r#"
            OPENQASM 2.0;
            gate majority a,b,c {
                cx c,b;
                cx c,a;
                ccx a,b,c;
            }
            qreg q[4];
            majority q[0],q[1],q[2];
            majority q[1],q[2],q[3];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_gates(), 6);
        assert_eq!(c.gates()[0].kind(), &GateKind::Cx);
        assert_eq!(c.gates()[0].qubits(), &[2, 1]);
        assert_eq!(c.gates()[2].kind(), &GateKind::Ccx);
        assert_eq!(c.gates()[5].qubits(), &[1, 2, 3]);
    }

    #[test]
    fn parameterised_custom_gate() {
        let src = r#"
            gate rr(theta) a { rx(theta/2) a; ry(theta/2) a; }
            qreg q[1];
            rr(pi) q[0];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_gates(), 2);
        match c.gates()[0].kind() {
            GateKind::Rx(a) => assert!((a - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            other => panic!("expected rx, got {other:?}"),
        }
    }

    #[test]
    fn nested_custom_gates() {
        let src = r#"
            gate flip a { x a; }
            gate double_flip a,b { flip a; flip b; }
            qreg q[2];
            double_flip q[0],q[1];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[0].kind(), &GateKind::X);
        assert_eq!(c.gates()[1].qubits(), &[1]);
    }

    #[test]
    fn custom_gate_semantics_match_inline() {
        // bell via a custom gate == bell written inline.
        let src = r#"
            gate bell a,b { h a; cx a,b; }
            qreg q[2];
            bell q[0],q[1];
        "#;
        let c = parse(src).unwrap();
        let mut want = Circuit::new(2);
        want.h(0).cx(0, 1);
        let got = crate::dense::simulate(&c);
        let expect = crate::dense::simulate(&want);
        assert!(bqsim_num::approx::vectors_eq(&got, &expect, 1e-12));
    }

    #[test]
    fn recursive_gate_definition_errors() {
        let src = r#"
            gate loop_a a { loop_a a; }
            qreg q[1];
            loop_a q[0];
        "#;
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
    }

    #[test]
    fn custom_gate_arity_errors() {
        let src = "gate two a,b { cx a,b; } qreg q[3]; two q[0];";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("takes 2 qubit(s)"), "{err}");
        let src = "gate one(t) a { rx(t) a; } qreg q[1]; one q[0];";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("takes 1 parameter(s)"), "{err}");
    }

    #[test]
    fn unknown_body_qubit_errors() {
        let src = "gate bad a { x b; } qreg q[1]; bad q[0];";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("unknown qubit argument"), "{err}");
    }

    #[test]
    fn unterminated_definition_errors() {
        let err = parse("gate oops a { x a;").unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn opaque_and_barrier_in_bodies_ignored() {
        let src = r#"
            opaque magic a,b;
            gate g a { barrier a; h a; }
            qreg q[1];
            g q[0];
        "#;
        let c = parse(src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn writer_roundtrip() {
        let mut c = Circuit::new(3);
        c.h(0)
            .ry(0.123456789, 1)
            .cx(1, 2)
            .rzz(-0.5, 0, 2)
            .cp(std::f64::consts::PI / 3.0, 2, 1)
            .ccx(0, 1, 2);
        let text = write(&c);
        let back = parse(&text).unwrap();
        assert_eq!(back.num_qubits(), c.num_qubits());
        assert_eq!(back.num_gates(), c.num_gates());
        for (a, b) in c.gates().iter().zip(back.gates()) {
            assert_eq!(a.qubits(), b.qubits());
            assert_eq!(a.kind().name(), b.kind().name());
            for (pa, pb) in a.kind().params().iter().zip(b.kind().params()) {
                assert_eq!(pa.to_bits(), pb.to_bits(), "angles must round-trip exactly");
            }
        }
    }

    use crate::GateKind;
}
