//! Trace-JSON schema validation.
//!
//! Every emitted trace — `EXPLAIN ANALYZE`, `Span::to_json`, the
//! benchmark's traced run — shares one schema (see `wimpi-obs`): a span is
//! an object with `op`, `label`, `rows_in`, `rows_out`, `wall_ns`, `total`,
//! `self`, and `children`. This module
//! parses that JSON with a small hand-rolled reader (the workspace has no
//! serde) and checks the *accounting invariant* that makes traces
//! trustworthy: for every counter, the self-values over the whole tree sum
//! to the root's total — nothing double-counted, nothing dropped.

use std::collections::BTreeMap;

/// A parsed JSON value (just enough for trace documents).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (trace counters are integral but may be large).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses one JSON document. Errors carry a byte offset.
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            // Surrogates never appear in our emitters' output.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Copy one UTF-8 char verbatim.
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }
}

/// Summary of a validated span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of spans in the tree.
    pub spans: usize,
    /// Root totals per counter name.
    pub root_total: BTreeMap<String, u64>,
}

/// Validates one span object: schema (required fields, right types,
/// recursively for children) and accounting (for every counter in the root's
/// `total`, the `self` values over the whole tree sum to it exactly).
pub fn validate_trace_json(doc: &str) -> Result<TraceStats, String> {
    let v = &parse_json(doc)?;
    check_span_schema(v, "root")?;
    let mut self_sums = BTreeMap::new();
    let spans = sum_self(v, &mut self_sums);
    let root_total = counter_map(v.get("total").expect("schema checked"));
    for (name, &total) in &root_total {
        let summed = self_sums.get(name).copied().unwrap_or(0);
        if summed != total {
            return Err(format!(
                "counter \"{name}\": tree self-sum {summed} != root total {total}"
            ));
        }
    }
    // The reverse direction: a self counter absent from the root total would
    // be work invented below the root. `worker` is exempt — it is an
    // informational id on morsel spans, not additive work (the obs crate's
    // `structure_eq` ignores it for the same reason).
    for name in self_sums.keys() {
        if name != "worker" && !root_total.contains_key(name) {
            return Err(format!("counter \"{name}\" appears in the tree but not the root total"));
        }
    }
    Ok(TraceStats { spans, root_total })
}

fn check_span_schema(v: &Json, path: &str) -> Result<(), String> {
    for key in ["op", "label"] {
        match v.get(key) {
            Some(Json::Str(_)) => {}
            _ => return Err(format!("{path}: missing string field \"{key}\"")),
        }
    }
    for key in ["rows_in", "rows_out", "wall_ns"] {
        match v.get(key) {
            Some(Json::Num(n)) if *n >= 0.0 => {}
            _ => return Err(format!("{path}: missing non-negative number \"{key}\"")),
        }
    }
    for key in ["total", "self"] {
        match v.get(key) {
            Some(Json::Obj(fields)) => {
                for (name, val) in fields {
                    if !matches!(val, Json::Num(n) if *n >= 0.0) {
                        return Err(format!("{path}: {key}[\"{name}\"] is not a counter"));
                    }
                }
            }
            _ => return Err(format!("{path}: missing object field \"{key}\"")),
        }
    }
    match v.get("children") {
        Some(Json::Arr(children)) => {
            for (i, child) in children.iter().enumerate() {
                check_span_schema(child, &format!("{path}/children[{i}]"))?;
            }
            Ok(())
        }
        _ => Err(format!("{path}: missing array field \"children\"")),
    }
}

fn counter_map(v: &Json) -> BTreeMap<String, u64> {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .filter_map(|(k, val)| val.as_num().map(|n| (k.clone(), n as u64)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

fn sum_self(v: &Json, acc: &mut BTreeMap<String, u64>) -> usize {
    for (name, val) in counter_map(v.get("self").expect("schema checked")) {
        *acc.entry(name).or_insert(0) += val;
    }
    let mut spans = 1;
    if let Some(Json::Arr(children)) = v.get("children") {
        for child in children {
            spans += sum_self(child, acc);
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimpi_obs::Span;

    fn sample_tree() -> Span {
        let mut leaf_a = Span::leaf("scan", "lineitem");
        leaf_a.counters = vec![("cpu_ops".into(), 30), ("seq_read_bytes".into(), 100)];
        let mut leaf_b = Span::leaf("eval", "x > 1");
        leaf_b.counters = vec![("cpu_ops".into(), 20)];
        let mut root = Span::leaf("query", "");
        root.counters = vec![("cpu_ops".into(), 60), ("seq_read_bytes".into(), 100)];
        root.children = vec![leaf_a, leaf_b];
        root
    }

    #[test]
    fn roundtrip_obs_span_validates() {
        let stats = validate_trace_json(&sample_tree().to_json()).unwrap();
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.root_total["cpu_ops"], 60);
    }

    #[test]
    fn detects_accounting_mismatch() {
        let mut bad = sample_tree();
        // Inflate a child's inclusive counter past the root's: the root's
        // derived self saturates at 0 and the tree self-sum overshoots.
        bad.children[0].counters[0].1 = 100;
        let err = validate_trace_json(&bad.to_json()).unwrap_err();
        assert!(err.contains("cpu_ops"), "{err}");
    }

    #[test]
    fn worker_counter_is_informational() {
        // Morsel spans carry a `worker` id counter; it is not additive work
        // and must not trip the "invented below the root" check.
        let mut tree = sample_tree();
        tree.children[0].counters.push(("worker".into(), 3));
        validate_trace_json(&tree.to_json()).unwrap();
    }

    #[test]
    fn peak_deltas_telescope() {
        // `peak_bytes` spans record interval deltas of a monotone reservation
        // high-water ratchet: sequential children raise it by at most the
        // parent's own delta, and the remainder is the parent's self value.
        // The additive accounting invariant therefore holds without any
        // special-casing — pin that here.
        let mut tree = sample_tree();
        tree.counters.push(("peak_bytes".into(), 500));
        tree.children[0].counters.push(("peak_bytes".into(), 200));
        tree.children[1].counters.push(("peak_bytes".into(), 250));
        let stats = validate_trace_json(&tree.to_json()).unwrap();
        assert_eq!(stats.root_total["peak_bytes"], 500);
    }

    #[test]
    fn detects_missing_fields() {
        let err = validate_trace_json(r#"{"op":"query"}"#).unwrap_err();
        assert!(err.contains("label"), "{err}");
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = parse_json(r#"{"s":"a\"b\nA","n":-1.5e2,"b":[true,false,null]}"#).unwrap();
        assert_eq!(v.get("s"), Some(&Json::Str("a\"b\nA".to_string())));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(-150.0));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{}trailing").is_err());
        assert!(parse_json(r#"{"a" 1}"#).is_err());
    }
}
