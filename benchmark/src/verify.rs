//! Answer verification: a 64-bit fingerprint of every cell's exact bits,
//! and the committed `golden/<workload>.tsv` files it is compared against.

use std::collections::BTreeMap;

use wimpi_engine::Relation;
use wimpi_storage::Column;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
    }
}

/// Fingerprint of a relation: column names, types and every cell's bits, in
/// order. Strings hash by value, not by dictionary code, so two layouts of
/// the same data agree.
pub fn fingerprint(rel: &Relation) -> u64 {
    let mut h = Fnv::new();
    for (name, col) in rel.fields() {
        h.str(name);
        match col.as_ref() {
            Column::Int64(v) => {
                h.bytes(b"i64");
                v.iter().for_each(|x| h.bytes(&x.to_le_bytes()));
            }
            Column::Int32(v) => {
                h.bytes(b"i32");
                v.iter().for_each(|x| h.bytes(&x.to_le_bytes()));
            }
            Column::Float64(v) => {
                h.bytes(b"f64");
                v.iter().for_each(|x| h.bytes(&x.to_bits().to_le_bytes()));
            }
            Column::Decimal(v, scale) => {
                h.bytes(&[b'd', *scale]);
                v.iter().for_each(|x| h.bytes(&x.to_le_bytes()));
            }
            Column::Date(v) => {
                h.bytes(b"date");
                v.iter().for_each(|x| h.bytes(&x.to_le_bytes()));
            }
            Column::Str(d) => {
                h.bytes(b"str");
                d.iter().for_each(|s| h.str(s));
            }
            Column::Bool(v) => {
                h.bytes(b"bool");
                v.iter().for_each(|&x| h.bytes(&[x as u8]));
            }
        }
    }
    h.0
}

/// What a golden file records per key: row count and fingerprint.
pub type Expected = (usize, u64);

/// Golden answers by key (`q01`, `q18.b128k`, `cold.q6.0123`, …).
pub struct Golden(BTreeMap<String, Expected>);

impl Golden {
    /// Parses `key<TAB>rows<TAB>hex fingerprint` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Golden {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut cols = line.split('\t');
            let (Some(key), Some(rows), Some(fp), None) =
                (cols.next(), cols.next(), cols.next(), cols.next())
            else {
                panic!("golden line is not key<TAB>rows<TAB>fingerprint: {line:?}");
            };
            let rows = rows.parse().expect("golden row count is a number");
            let fp = u64::from_str_radix(fp, 16).expect("golden fingerprint is hex");
            map.insert(key.to_string(), (rows, fp));
        }
        Golden(map)
    }

    pub fn get(&self, key: &str) -> Option<Expected> {
        self.0.get(key).copied()
    }

    pub fn render(answers: &BTreeMap<String, Expected>) -> String {
        let mut out = String::from("# key\trows\tfingerprint (FNV-1a 64 of every cell's bits)\n");
        for (key, (rows, fp)) in answers {
            out.push_str(&format!("{key}\t{rows}\t{fp:016x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wimpi_storage::dict::DictBuilder;

    fn rel(fields: Vec<(&str, Column)>) -> Relation {
        Relation::new(fields.into_iter().map(|(n, c)| (n.to_string(), Arc::new(c))).collect())
            .expect("relation builds")
    }

    fn strs(values: &[&str]) -> Column {
        let mut b = DictBuilder::new();
        values.iter().for_each(|v| b.push(v));
        Column::Str(b.finish())
    }

    #[test]
    fn fingerprint_sees_every_bit_and_the_column_order() {
        let base =
            rel(vec![("a", Column::Int64(vec![1, 2])), ("b", Column::Float64(vec![0.5, 1.5]))]);
        let same =
            rel(vec![("a", Column::Int64(vec![1, 2])), ("b", Column::Float64(vec![0.5, 1.5]))]);
        assert_eq!(fingerprint(&base), fingerprint(&same));
        let ulp = f64::from_bits(1.5f64.to_bits() + 1);
        let off =
            rel(vec![("a", Column::Int64(vec![1, 2])), ("b", Column::Float64(vec![0.5, ulp]))]);
        assert_ne!(fingerprint(&base), fingerprint(&off));
        let renamed =
            rel(vec![("a", Column::Int64(vec![1, 2])), ("c", Column::Float64(vec![0.5, 1.5]))]);
        assert_ne!(fingerprint(&base), fingerprint(&renamed));
        assert_ne!(
            fingerprint(&rel(vec![("a", Column::Int64(vec![1, 2]))])),
            fingerprint(&rel(vec![("a", Column::Decimal(vec![1, 2], 2))]))
        );
    }

    #[test]
    fn strings_hash_by_value_not_by_dictionary_code() {
        let a = rel(vec![("s", strs(&["x", "y", "x"]))]);
        // Same values reached through a different insertion order of codes.
        let b = match strs(&["y", "x", "y", "x"]) {
            Column::Str(d) => rel(vec![("s", Column::Str(d.slice(1..4)))]),
            _ => unreachable!(),
        };
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&rel(vec![("s", strs(&["x", "yx", ""]))])));
    }

    #[test]
    fn golden_round_trips() {
        let mut answers = BTreeMap::new();
        answers.insert("q01".to_string(), (4, 0xdead_beef_u64));
        answers.insert("q06".to_string(), (1, 7));
        let g = Golden::parse(&Golden::render(&answers));
        assert_eq!(g.get("q01"), Some((4, 0xdead_beef)));
        assert_eq!(g.get("q06"), Some((1, 7)));
        assert_eq!(g.get("q02"), None);
    }
}
