//! What a child reports and the runner reads: flat `name: number` pairs,
//! printed as one JSON object.

use std::collections::BTreeMap;

pub type Fields = BTreeMap<String, f64>;

/// A missing field reads 0: the workload it belongs to does not have it.
pub fn get(m: &Fields, key: &str) -> f64 {
    m.get(key).copied().unwrap_or(0.0)
}

pub fn put<const N: usize>(m: &mut Fields, fields: [(&str, f64); N]) {
    m.extend(fields.map(|(key, value)| (key.to_string(), value)));
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
