//! Minimal TSV import/export for relations.
//!
//! The first line is a tab-separated attribute-name header; each subsequent
//! non-empty line is a tuple. Values that parse as `i64` become integers,
//! everything else is a string. This keeps example programs and ad-hoc
//! experiments self-contained without pulling in a serialization framework.
//!
//! String values are escaped on export so that every relation round-trips:
//! `\` `⇥` `␊` `␍` become `\\` `\t` `\n` `\r`, and strings that the plain
//! reader would mangle — ones that re-parse as an integer (`"007"`), are
//! empty, or carry leading/trailing whitespace — get a `\s` marker prefix
//! forcing the verbatim-string path. Cells without a backslash keep the
//! historical trim-and-sniff behavior, so hand-written files are unaffected;
//! cells with one are unescaped exactly, and an unknown escape is a parse
//! error rather than silent corruption.

use crate::attr::Catalog;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::relation::{Relation, Row};
use crate::schema::Schema;
use crate::value::Value;
use std::borrow::Cow;

/// Parse a relation from TSV text, interning attribute names into `catalog`.
///
/// Column order in the file may differ from canonical schema order; values
/// are permuted into place. Thin wrapper over [`relation_from_tsv_reader`].
pub fn relation_from_tsv(catalog: &mut Catalog, text: &str) -> Result<Relation> {
    relation_from_tsv_reader(catalog, text.as_bytes())
}

/// Parse a relation by streaming lines from any [`std::io::BufRead`] source
/// (a `File` behind a `BufReader`, a byte slice, a pipe) — one line resident
/// at a time instead of the whole file as a `String`. I/O failures surface
/// as [`Error::Parse`] like any other malformed input.
pub fn relation_from_tsv_reader<R: std::io::BufRead>(
    catalog: &mut Catalog,
    reader: R,
) -> Result<Relation> {
    let read_err = |e: std::io::Error| Error::Parse(format!("TSV read error: {e}"));
    // `BufRead::lines` strips `\r\n` only on `\n`-terminated lines; a final
    // record with no trailing newline keeps its `\r` (network clients send
    // both CRLF endings and unterminated last lines). A raw trailing `\r`
    // can only be a line-ending artifact — carriage returns *inside* string
    // values are escaped as `\r` on export — so strip exactly one here.
    fn chomp_cr(mut line: String) -> String {
        if line.ends_with('\r') {
            line.pop();
        }
        line
    }
    let mut lines = reader.lines();
    let header = loop {
        match lines.next() {
            None => return Err(Error::Parse("TSV input has no header line".to_string())),
            Some(line) => {
                let line = chomp_cr(line.map_err(read_err)?);
                if !line.trim().is_empty() {
                    break line;
                }
            }
        }
    };
    let col_names: Vec<&str> = header.split('\t').map(str::trim).collect();
    if col_names.iter().any(|n| n.is_empty()) {
        return Err(Error::Parse(
            "empty attribute name in TSV header".to_string(),
        ));
    }
    let col_ids: Vec<_> = col_names.iter().map(|n| catalog.intern(n)).collect();
    {
        let mut sorted = col_ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != col_ids.len() {
            return Err(Error::Parse(
                "duplicate attribute in TSV header".to_string(),
            ));
        }
    }
    let schema = Schema::new(col_ids.clone());
    // Position of each file column in the canonical schema.
    let dest: Vec<usize> = col_ids
        .iter()
        .map(|&id| schema.position(id).expect("interned above"))
        .collect();

    let mut rows: Vec<Row> = Vec::new();
    // Index among non-blank data lines, matching the historical in-memory
    // parser's numbering (blank lines are skipped, not counted).
    let mut lineno = 0usize;
    for line in lines {
        let line = chomp_cr(line.map_err(read_err)?);
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != col_ids.len() {
            return Err(Error::Parse(format!(
                "line {}: expected {} values, found {}",
                lineno + 2,
                col_ids.len(),
                cells.len()
            )));
        }
        let mut row: Vec<Value> = vec![Value::Int(0); cells.len()];
        for (i, cell) in cells.iter().enumerate() {
            row[dest[i]] = cell_from_tsv(cell, lineno + 2)?;
        }
        rows.push(row.into());
        lineno += 1;
    }
    Relation::from_rows(schema, rows)
}

/// Decode one TSV cell. A cell without a backslash takes the historical
/// path (trim, then sniff for an integer); a cell with one is an escaped
/// string and decodes verbatim — no trim, no integer sniffing.
fn cell_from_tsv(cell: &str, lineno: usize) -> Result<Value> {
    if !cell.contains('\\') {
        return Ok(Value::parse(cell.trim()));
    }
    let body = cell.strip_prefix("\\s").unwrap_or(cell);
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                let what = other.map_or("at end of cell".to_string(), |c| format!("`\\{c}`"));
                return Err(Error::Parse(format!(
                    "line {lineno}: unknown TSV escape {what}"
                )));
            }
        }
    }
    Ok(Value::str(out))
}

/// Encode one value as a TSV cell, escaping whatever would corrupt the file
/// (tabs and newlines inside strings) or mis-decode on re-import (strings
/// that look like integers, empty strings, surrounding whitespace).
fn cell_to_tsv(v: &Value) -> String {
    let s = match v {
        Value::Int(i) => return i.to_string(),
        Value::Str(s) => s,
    };
    let needs_marker = s.is_empty() || s.trim().len() != s.len() || s.parse::<i64>().is_ok();
    let needs_escape = s.contains(['\\', '\t', '\n', '\r']);
    if !needs_marker && !needs_escape {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    if needs_marker {
        out.push_str("\\s");
    }
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Write one body row (no header) as one TSV line, cells in the row's own
/// order, returning the bytes written. Counterpart of [`read_rows_tsv`];
/// the Grace-hash spill path streams partition files through this pair, so
/// it uses the same cell escaping as the relation writer and hostile
/// strings round-trip bit-for-bit. Tuple dumps that are not relations
/// (`mjoin_cli datalog`'s facts) render their rows through it too.
pub fn write_row_tsv<W: std::io::Write>(out: &mut W, row: &[Value]) -> std::io::Result<usize> {
    let mut n = 0usize;
    for (i, v) in row.iter().enumerate() {
        if i > 0 {
            out.write_all(b"\t")?;
            n += 1;
        }
        let cell = cell_to_tsv(v);
        out.write_all(cell.as_bytes())?;
        n += cell.len();
    }
    out.write_all(b"\n")?;
    Ok(n + 1)
}

/// Parse header-less TSV body rows of known `arity`, as written by
/// [`write_row_tsv`]. Cells land positionally — spill files store rows in
/// schema-canonical order already, so no catalog or column permutation is
/// involved.
pub(crate) fn read_rows_tsv<R: std::io::BufRead>(reader: R, arity: usize) -> Result<Vec<Row>> {
    let read_err = |e: std::io::Error| Error::Parse(format!("TSV read error: {e}"));
    let mut rows: Vec<Row> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(read_err)?;
        let line = line.strip_suffix('\r').unwrap_or(&line);
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split('\t').collect();
        if cells.len() != arity {
            return Err(Error::Parse(format!(
                "spill row {}: expected {arity} values, found {}",
                lineno + 1,
                cells.len()
            )));
        }
        let row: Result<Vec<Value>> = cells.iter().map(|c| cell_from_tsv(c, lineno + 1)).collect();
        rows.push(row?.into());
    }
    Ok(rows)
}

/// Stream a relation as TSV (canonical column order, sorted rows) into any
/// [`std::io::Write`] sink, one row at a time. Thin wrapper over
/// [`columns_to_tsv_writer`] with the schema's attribute names as the
/// header and every column once, in canonical order.
pub fn relation_to_tsv_writer<W: std::io::Write>(
    catalog: &Catalog,
    rel: &Relation,
    out: &mut W,
) -> std::io::Result<()> {
    let names: Vec<&str> = rel
        .schema()
        .attrs()
        .iter()
        .map(|&a| catalog.name(a))
        .collect();
    let positions: Vec<usize> = (0..rel.schema().arity()).collect();
    columns_to_tsv_writer(&names, rel, &positions, out)
}

/// Stream the columns of `rel` at `positions` as TSV under the header line
/// `header` (one name per position). A position may repeat, so a
/// conjunctive query's head `Q(x, x)` renders both cells from one column.
///
/// The rows are emitted straight from the column vectors: the row order is a
/// sorted *id permutation* over typed per-position keys ([`sort_keys`]; the
/// same order as sorting the rendered tuples by `Value`), each dictionary
/// entry is escaped exactly once — every later occurrence copies the cached
/// cell bytes — and integers format through a digit-pair table. Rows are
/// staged in a small reused chunk, so `out` sees a few large writes rather
/// than one per cell. No row view is materialized and no output `String`
/// proportional to the relation is built, so dumping a large result costs
/// O(dict + ids) transient memory.
pub fn columns_to_tsv_writer<W: std::io::Write>(
    header: &[&str],
    rel: &Relation,
    positions: &[usize],
    out: &mut W,
) -> std::io::Result<()> {
    /// Bytes staged before one write to `out`.
    const CHUNK: usize = 8 << 10;
    debug_assert_eq!(header.len(), positions.len());
    let mut chunk: Vec<u8> = Vec::with_capacity(CHUNK + 256);
    for (k, name) in header.iter().enumerate() {
        if k > 0 {
            chunk.push(b'\t');
        }
        chunk.extend_from_slice(name.as_bytes());
    }
    chunk.push(b'\n');

    let cols = rel.columns();
    let mut ids: Vec<u32> = (0..rel.len() as u32).collect();
    {
        // A repeated position adds nothing to the order: its cells tie
        // whenever the first occurrence's do.
        let mut seen = Vec::with_capacity(positions.len());
        let keys: Vec<Cow<'_, [i64]>> = positions
            .iter()
            .filter(|&&p| {
                let first = !seen.contains(&p);
                seen.push(p);
                first
            })
            .map(|&p| sort_keys(&cols[p]))
            .collect();
        ids.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            for k in &keys {
                match k[a].cmp(&k[b]) {
                    std::cmp::Ordering::Equal => {}
                    o => return o,
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    // Escape each dictionary entry once, up front.
    let escaped: Vec<Option<Vec<String>>> = cols
        .iter()
        .enumerate()
        .map(|(p, c)| match c {
            Column::Dict { dict, .. } if positions.contains(&p) => Some(
                (0..dict.len() as u32)
                    .map(|i| cell_to_tsv(dict.value(i)))
                    .collect(),
            ),
            _ => None,
        })
        .collect();
    let cells: Vec<Cells<'_>> = positions
        .iter()
        .map(|&p| match (&cols[p], &escaped[p]) {
            (Column::Int(v), _) => Cells::Int(v),
            (Column::Dict { codes, .. }, Some(cache)) => Cells::Dict(codes, cache),
            (Column::Dict { .. }, None) => unreachable!("dict column cached"),
        })
        .collect();
    let mut digits = [0u8; 20];
    for &i in &ids {
        let i = i as usize;
        for (k, c) in cells.iter().enumerate() {
            if k > 0 {
                chunk.push(b'\t');
            }
            match c {
                Cells::Int(v) => chunk.extend_from_slice(format_i64(v[i], &mut digits)),
                Cells::Dict(codes, cache) => {
                    chunk.extend_from_slice(cache[codes[i] as usize].as_bytes());
                }
            }
        }
        chunk.push(b'\n');
        if chunk.len() >= CHUNK {
            out.write_all(&chunk)?;
            chunk.clear();
        }
    }
    out.write_all(&chunk)
}

/// Where one output position's cells come from: an integer column's values,
/// or a dictionary column's codes into its pre-escaped entries.
enum Cells<'a> {
    Int(&'a [i64]),
    Dict(&'a [u32], &'a [String]),
}

/// The sort key of every row of `col`: an integer column's own values, or,
/// for a dictionary column, the dense rank of each row's value among the
/// dictionary's entries under `Value::cmp` (one sort of the dictionary,
/// not of the rows). Equal values get equal ranks, so comparing keys
/// orders rows exactly as comparing their `Value`s does — for mixed
/// integer/string dictionaries too.
fn sort_keys(col: &Column) -> Cow<'_, [i64]> {
    match col {
        Column::Int(v) => Cow::Borrowed(v),
        Column::Dict { codes, dict } => {
            let mut order: Vec<u32> = (0..dict.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| dict.value(a).cmp(dict.value(b)));
            let mut rank = vec![0i64; dict.len()];
            let mut r = 0i64;
            for (n, &code) in order.iter().enumerate() {
                if n > 0 && dict.value(order[n - 1]) != dict.value(code) {
                    r += 1;
                }
                rank[code as usize] = r;
            }
            codes.iter().map(|&c| rank[c as usize]).collect()
        }
    }
}

/// `"00" "01" … "99"`: two decimal digits per table entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Format `v` in decimal into the tail of `buf` (20 bytes hold `i64::MIN`)
/// and return the digits — the bytes `v.to_string()` would produce, two
/// digits per division.
fn format_i64(v: i64, buf: &mut [u8; 20]) -> &[u8] {
    let mut n = v.unsigned_abs();
    let mut at = buf.len();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    &buf[at..]
}

/// Render a relation as TSV (canonical column order, sorted rows). Thin
/// wrapper over [`relation_to_tsv_writer`] collecting into a `String`.
pub fn relation_to_tsv(catalog: &Catalog, rel: &Relation) -> String {
    let mut out: Vec<u8> = Vec::new();
    relation_to_tsv_writer(catalog, rel, &mut out).expect("Vec sink cannot fail");
    String::from_utf8(out).expect("TSV output is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut c = Catalog::new();
        let text = "A\tB\n1\t2\n3\thello\n";
        let rel = relation_from_tsv(&mut c, text).unwrap();
        assert_eq!(rel.len(), 2);
        assert!(rel.contains_row(&[Value::Int(1), Value::Int(2)]));
        assert!(rel.contains_row(&[Value::Int(3), Value::str("hello")]));
        let rendered = relation_to_tsv(&c, &rel);
        let rel2 = relation_from_tsv(&mut c, &rendered).unwrap();
        assert_eq!(rel, rel2);
    }

    #[test]
    fn permuted_header_columns_land_canonically() {
        let mut c = Catalog::new();
        c.intern("A"); // make A have the smaller id
        c.intern("B");
        let rel = relation_from_tsv(&mut c, "B\tA\n2\t1\n").unwrap();
        // Canonical order is A, B.
        assert!(rel.contains_row(&[Value::Int(1), Value::Int(2)]));
    }

    #[test]
    fn errors() {
        let mut c = Catalog::new();
        assert!(relation_from_tsv(&mut c, "").is_err());
        assert!(relation_from_tsv(&mut c, "A\tA\n1\t2\n").is_err());
        assert!(relation_from_tsv(&mut c, "A\tB\n1\n").is_err());
        assert!(relation_from_tsv(&mut c, "A\t\n1\t2\n").is_err());
    }

    #[test]
    fn blank_lines_ignored_and_dedup() {
        let mut c = Catalog::new();
        let rel = relation_from_tsv(&mut c, "A\n\n1\n1\n\n2\n").unwrap();
        assert_eq!(rel.len(), 2);
    }

    /// Regression: strings containing tabs or newlines used to be written
    /// verbatim, silently corrupting the file's row/column structure.
    #[test]
    fn hostile_strings_roundtrip() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "AB");
        let hostile = [
            "tab\there",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "\\t not a tab",
            "007",        // would re-parse as Int(7)
            "-0",         // would re-parse as Int(0)
            "",           // empty string ≠ missing value
            "  padded  ", // trim would eat the spaces
            " \t mixed \n ",
        ];
        let rows = hostile
            .iter()
            .enumerate()
            .map(|(i, s)| vec![Value::Int(i as i64), Value::str(*s)].into())
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let text = relation_to_tsv(&c, &rel);
        // The payload never leaks a raw tab/newline into the file body: every
        // data line has exactly one tab (the A/B separator).
        for line in text.lines().skip(1) {
            assert_eq!(line.matches('\t').count(), 1, "corrupt line: {line:?}");
        }
        let back = relation_from_tsv(&mut c, &text).unwrap();
        assert_eq!(back, rel);
    }

    /// The streaming reader is the same parser: identical result on good
    /// input, identical line numbering in errors (blank lines skipped, not
    /// counted), and I/O failures surface as parse errors.
    #[test]
    fn reader_streams_like_the_string_parser() {
        let mut c = Catalog::new();
        let text = "A\tB\n\n1\t2\n\n3\thi\n";
        let from_str = relation_from_tsv(&mut c, text).unwrap();
        let from_reader =
            relation_from_tsv_reader(&mut c, std::io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(from_str, from_reader);

        let bad = "A\tB\n\n1\t2\n3\n";
        let e1 = relation_from_tsv(&mut c, bad).unwrap_err().to_string();
        let e2 = relation_from_tsv_reader(&mut c, bad.as_bytes())
            .unwrap_err()
            .to_string();
        assert_eq!(e1, e2);
        assert!(e1.contains("line 3"), "{e1}");

        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk gone"))
            }
        }
        let err = relation_from_tsv_reader(&mut c, std::io::BufReader::new(Failing)).unwrap_err();
        assert!(err.to_string().contains("TSV read error"), "{err}");
    }

    /// The streaming writer emits exactly what the historical String
    /// renderer did: header, then rows in sorted order, one escape per cell.
    #[test]
    fn writer_matches_sorted_row_rendering() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "AB");
        let rows = (0..50)
            .map(|i| {
                vec![
                    Value::Int(97 - i),
                    if i % 3 == 0 {
                        Value::str(format!("s{}", i % 7))
                    } else {
                        Value::Int(i)
                    },
                ]
                .into()
            })
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let mut expect = String::new();
        expect.push_str("A\tB\n");
        for row in rel.sorted_rows() {
            let cells: Vec<String> = row.iter().map(cell_to_tsv).collect();
            expect.push_str(&cells.join("\t"));
            expect.push('\n');
        }
        let mut sink: Vec<u8> = Vec::new();
        relation_to_tsv_writer(&c, &rel, &mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), expect);
        assert_eq!(relation_to_tsv(&c, &rel), expect);
    }

    /// Head-order rendering: positions pick (and may repeat) columns, rows
    /// sort by the picked cells in that order, and cells are escaped.
    #[test]
    fn columns_writer_follows_positions() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "AB");
        let rows = vec![
            vec![Value::Int(2), Value::str("a\tb")].into(),
            vec![Value::Int(1), Value::str("42")].into(),
            vec![Value::Int(3), Value::str("42")].into(),
        ];
        let rel = Relation::from_rows(schema, rows).unwrap();
        let mut sink: Vec<u8> = Vec::new();
        columns_to_tsv_writer(&["b", "a", "b"], &rel, &[1, 0, 1], &mut sink).unwrap();
        assert_eq!(
            String::from_utf8(sink).unwrap(),
            "b\ta\tb\n\\s42\t1\t\\s42\n\\s42\t3\t\\s42\na\\tb\t2\ta\\tb\n"
        );
    }

    /// Network clients send CRLF line endings and files truncated before
    /// the final newline; both must parse identically to the LF-terminated
    /// canonical form — including the nasty combination of an *escaped*
    /// string cell on an unterminated CRLF final record, where the stray
    /// `\r` used to be absorbed verbatim into the decoded value.
    #[test]
    fn crlf_and_missing_final_newline() {
        let mut c = Catalog::new();
        let canonical = relation_from_tsv(&mut c, "A\tB\n1\t2\n3\thello\n").unwrap();
        for variant in [
            "A\tB\r\n1\t2\r\n3\thello\r\n", // CRLF throughout
            "A\tB\n1\t2\n3\thello",         // no final newline
            "A\tB\r\n1\t2\r\n3\thello\r",   // CRLF, final record unterminated
            "A\tB\r\n1\t2\n3\thello",       // mixed endings
        ] {
            let rel = relation_from_tsv(&mut c, variant).unwrap();
            assert_eq!(rel, canonical, "variant {variant:?}");
            let rel = relation_from_tsv_reader(&mut c, variant.as_bytes()).unwrap();
            assert_eq!(rel, canonical, "reader variant {variant:?}");
        }

        // Escaped cell in final position of an unterminated CRLF record:
        // the trailing \r is a line ending, not part of the value.
        let rel = relation_from_tsv(&mut c, "A\r\n\\shello\r").unwrap();
        assert!(rel.contains_row(&[Value::str("hello")]));
        // A carriage return that is *part of* the value survives, because
        // it travels escaped.
        let rel = relation_from_tsv(&mut c, "A\r\n\\shi\\r\r").unwrap();
        assert!(rel.contains_row(&[Value::str("hi\r")]));

        // Header-only file with no newline at all still parses (empty
        // relation), and a CRLF header interns clean attribute names.
        let rel = relation_from_tsv(&mut c, "A\tB").unwrap();
        assert_eq!(rel.len(), 0);
        let rel = relation_from_tsv(&mut c, "Z\tY\r\n1\t2\r\n").unwrap();
        assert!(c.lookup("Z").is_some() && c.lookup("Y").is_some());
        assert_eq!(rel.len(), 1);
    }

    /// The digit-pair formatter is `i64::to_string`, extremes included.
    #[test]
    fn integer_formatting_matches_display() {
        let mut buf = [0u8; 20];
        for v in [
            0,
            1,
            -1,
            9,
            10,
            -10,
            99,
            100,
            -101,
            123_456_789,
            -999_999_999,
            i64::MAX,
            i64::MIN,
            i64::MIN + 1,
        ] {
            assert_eq!(format_i64(v, &mut buf), v.to_string().as_bytes(), "{v}");
        }
    }

    #[test]
    fn plain_cells_keep_trim_and_int_sniffing() {
        let mut c = Catalog::new();
        let rel = relation_from_tsv(&mut c, "A\tB\n 1 \t hello \n").unwrap();
        assert!(rel.contains_row(&[Value::Int(1), Value::str("hello")]));
    }

    #[test]
    fn unknown_escape_is_rejected() {
        let mut c = Catalog::new();
        let err = relation_from_tsv(&mut c, "A\nfoo\\qbar\n").unwrap_err();
        assert!(err.to_string().contains("unknown TSV escape"), "{err}");
        // A trailing lone backslash is rejected too.
        assert!(relation_from_tsv(&mut c, "A\nfoo\\\n").is_err());
    }
}

/// Oracle for the columnar writer: the bytes it streams equal a reference
/// renderer that sorts the row view (`sorted_rows`), projects each row onto
/// the positions, and joins `cell_to_tsv` cells with tabs.
#[cfg(test)]
mod writer_oracle {
    use super::*;
    use proptest::prelude::*;

    fn reference(header: &[&str], rel: &Relation, positions: &[usize]) -> String {
        let mut rows: Vec<Vec<Value>> = rel
            .sorted_rows()
            .iter()
            .map(|r| positions.iter().map(|&p| r[p].clone()).collect())
            .collect();
        rows.sort();
        let mut out = header.join("\t");
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row.iter().map(cell_to_tsv).collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }

    fn written(header: &[&str], rel: &Relation, positions: &[usize]) -> String {
        let mut sink: Vec<u8> = Vec::new();
        columns_to_tsv_writer(header, rel, positions, &mut sink).unwrap();
        String::from_utf8(sink).unwrap()
    }

    /// Integers around the edges of `i64` and of the digit-pair table.
    const INTS: [i64; 12] = [
        0,
        -1,
        7,
        -42,
        99,
        100,
        123_456_789,
        -987_654_321,
        i64::MAX,
        i64::MIN,
        i64::MAX - 1,
        i64::MIN + 1,
    ];
    /// Strings that sort around each other and need every escape.
    const STRS: [&str; 9] = ["a", "b", "a\tb", "42", "", " lead", "x\\y", "π", "-0"];

    /// Column kinds: 0 = integers only, 1 = strings only, 2 = mixed.
    fn cell(kind: u8, pick: usize) -> Value {
        match (kind, pick % 2) {
            (0, _) | (2, 0) => Value::Int(INTS[pick % INTS.len()]),
            _ => Value::str(STRS[pick % STRS.len()]),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn columns_writer_matches_sorted_row_reference(
            kinds in prop::collection::vec(0u8..3, 0..4),
            picks in prop::collection::vec(prop::collection::vec(0usize..40, 4), 0..30),
            positions in prop::collection::vec(0usize..4, 0..5),
            filter in 0u8..3,
        ) {
            let mut c = Catalog::new();
            let arity = kinds.len();
            let schema = Schema::from_chars(&mut c, &"ABCD"[..arity]);
            let tuples: Vec<Vec<Value>> = picks
                .iter()
                .map(|p| (0..arity).map(|i| cell(kinds[i], p[i])).collect())
                .collect();
            let mut rel = if arity == 0 && !tuples.is_empty() {
                Relation::nullary_unit()
            } else {
                Relation::from_tuples(schema, tuples).unwrap()
            };
            // A column-born selection keeps the source's dictionaries, so
            // pools hold entries no row references.
            if filter == 1 && arity > 0 {
                rel = crate::ops::select_where(&rel, |r| r[0] != Value::Int(0));
            }
            // Positions index this relation's columns, and may repeat.
            let positions: Vec<usize> = if arity == 0 {
                Vec::new()
            } else {
                positions.iter().map(|&p| p % arity).collect()
            };
            let names: Vec<String> = positions.iter().map(|p| format!("h{p}")).collect();
            let header: Vec<&str> = names.iter().map(String::as_str).collect();
            prop_assert_eq!(
                written(&header, &rel, &positions),
                reference(&header, &rel, &positions)
            );
            // Every column once, in canonical order: the relation writer.
            let all: Vec<usize> = (0..arity).collect();
            let canon: Vec<&str> = rel.schema().attrs().iter().map(|&a| c.name(a)).collect();
            prop_assert_eq!(relation_to_tsv(&c, &rel), reference(&canon, &rel, &all));
        }
    }

    /// `Q(x, x)` over extreme integers, and the two nullary relations.
    #[test]
    fn repeated_positions_and_nullary_relations() {
        let mut c = Catalog::new();
        let schema = Schema::from_chars(&mut c, "A");
        let rel =
            Relation::from_tuples(schema, INTS.iter().map(|&v| vec![Value::Int(v)]).collect())
                .unwrap();
        let text = written(&["x", "x"], &rel, &[0, 0]);
        assert_eq!(text, reference(&["x", "x"], &rel, &[0, 0]));
        assert!(text.starts_with("x\tx\n-9223372036854775808\t-9223372036854775808\n"));
        assert!(text.ends_with("9223372036854775807\t9223372036854775807\n"));
        assert_eq!(written(&[], &Relation::nullary_unit(), &[]), "\n\n");
        let empty = Relation::empty(Schema::new(Vec::new()));
        assert_eq!(written(&[], &empty, &[]), "\n");
    }
}
