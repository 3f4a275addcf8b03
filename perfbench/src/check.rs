//! Answer checks, run on each response after its clock has stopped.
//!
//! A full check parses the response and compares its TSV with the expected
//! answer. Responses to one request are byte-identical in their `tsv`
//! field, so after a full check passes, later responses whose `tsv` bytes
//! equal a verified one only need their `ok` flag and cost compared. Any
//! other response gets the full check again.

use crate::inputs::{Expect, Request};
use mjoin::serve::Value as J;

/// What a checked response reported.
pub struct Seen {
    /// The cumulative `cache` block counters `(hit, miss)`, when present.
    pub cache: Option<(u64, u64)>,
}

pub struct Checker<'w> {
    round: &'w [Request],
    verified: Vec<Vec<Vec<u8>>>,
    costs: Vec<Option<u64>>,
}

/// Find `"key":` in a compact JSON line and return the bytes after it.
fn after_key<'a>(line: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let pat = format!("\"{key}\":");
    line.windows(pat.len())
        .position(|w| w == pat.as_bytes())
        .map(|i| &line[i + pat.len()..])
}

fn raw_u64(line: &[u8], key: &str) -> Option<u64> {
    let rest = after_key(line, key)?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()
}

/// The raw (still escaped) bytes of a string field.
fn raw_str<'a>(line: &'a [u8], key: &str) -> Option<&'a [u8]> {
    let rest = after_key(line, key)?.strip_prefix(b"\"")?;
    let mut i = 0;
    while i < rest.len() {
        match rest[i] {
            b'\\' => i += 2,
            b'"' => return Some(&rest[..i]),
            _ => i += 1,
        }
    }
    None
}

/// Parse result TSV text into its header and integer rows.
fn parse_tsv(text: &str) -> Result<(Vec<String>, Vec<Vec<i64>>), String> {
    let mut lines = text.lines();
    let header: Vec<String> = lines
        .next()
        .ok_or("empty TSV")?
        .split('\t')
        .map(str::to_string)
        .collect();
    let rows = lines
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.split('\t')
                .map(|c| c.parse::<i64>().map_err(|e| format!("cell `{c}`: {e}")))
                .collect::<Result<Vec<i64>, String>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((header, rows))
}

impl<'w> Checker<'w> {
    /// The cost each request of the round reported (0 if never seen).
    pub fn costs(&self) -> Vec<u64> {
        self.costs.iter().map(|c| c.unwrap_or(0)).collect()
    }

    pub fn new(round: &'w [Request]) -> Self {
        Checker {
            round,
            verified: vec![Vec::new(); round.len()],
            costs: vec![None; round.len()],
        }
    }

    /// Check the response `line` to request `idx` of the round.
    pub fn check(&mut self, idx: usize, line: &[u8]) -> Result<Seen, String> {
        let round = self.round;
        let req = &round[idx];
        if !line.starts_with(b"{\"ok\":true") {
            let end = line.len().min(300);
            return Err(format!(
                "not ok: {}",
                String::from_utf8_lossy(&line[..end]).trim_end()
            ));
        }
        let cost = raw_u64(line, req.cost_field)
            .ok_or_else(|| format!("response has no `{}`", req.cost_field))?;
        let tsv = raw_str(line, "tsv").ok_or("response has no `tsv`")?;
        if !self.verified[idx].iter().any(|v| v.as_slice() == tsv) {
            let parsed = J::parse(
                std::str::from_utf8(line)
                    .map_err(|e| e.to_string())?
                    .trim_end(),
            )?;
            let text = parsed.get("tsv").and_then(J::as_str).ok_or("bad `tsv`")?;
            check_answer(&req.expect, text)?;
            self.verified[idx].push(tsv.to_vec());
        }
        match &req.expect {
            Expect::Rows { cost: Some(c), .. } if cost != *c => {
                return Err(format!("cost {cost}, expected {c}"));
            }
            Expect::Spine { cost_below, .. } if u128::from(cost) >= *cost_below => {
                return Err(format!("cost {cost} breaks Theorem 2's bound {cost_below}"));
            }
            _ => {}
        }
        match self.costs[idx] {
            Some(c) if c != cost => return Err(format!("cost {cost}, earlier {c}")),
            _ => self.costs[idx] = Some(cost),
        }
        let cache =
            after_key(line, "cache").and_then(|c| Some((raw_u64(c, "hit")?, raw_u64(c, "miss")?)));
        Ok(Seen { cache })
    }
}

fn check_answer(expect: &Expect, text: &str) -> Result<(), String> {
    let (header, rows) = parse_tsv(text)?;
    match expect {
        Expect::Rows {
            cols, rows: want, ..
        } => {
            let pos: Vec<usize> = cols
                .iter()
                .map(|c| {
                    header
                        .iter()
                        .position(|h| h == c)
                        .ok_or_else(|| format!("result has no column `{c}`"))
                })
                .collect::<Result<_, _>>()?;
            if header.len() != cols.len() {
                return Err(format!("result columns {header:?}, expected {cols:?}"));
            }
            let mut got = rows
                .iter()
                .map(|r| {
                    pos.iter()
                        .map(|&p| r.get(p).copied().ok_or("short row"))
                        .collect()
                })
                .collect::<Result<Vec<Vec<i64>>, _>>()?;
            got.sort_unstable();
            if got != *want {
                return Err(format!(
                    "answer differs from the oracle ({} rows, expected {})",
                    got.len(),
                    want.len()
                ));
            }
        }
        Expect::Spine { width, spine, .. } => {
            let only_spine =
                rows.len() == 1 && rows[0].len() == *width && rows[0].iter().all(|v| v == spine);
            if !only_spine || header.len() != *width {
                return Err(format!(
                    "expected only the all-spine row, got {} rows",
                    rows.len()
                ));
            }
        }
    }
    Ok(())
}
