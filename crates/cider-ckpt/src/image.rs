//! The byte-stable full-state image.
//!
//! A [`StateImage`] is the complete observable state of a simulated
//! device at one instant: an ordered list of named sections, each an
//! ordered list of `(key, value)` string records. Sections come from
//! the per-subsystem exporters (kernel tasks/threads/VFS/IPC,
//! scheduler bands, fault streams, Mach port space, gfx counters) and
//! from the harness (workload cursor). Record values are rendered by
//! the exporters from `BTreeMap`s and stable walks, so two captures of
//! identical devices are equal record-for-record — and therefore
//! byte-for-byte once encoded.

use std::fmt;

use cider_abi::hash::fnv1a;

use crate::wire::{ByteReader, ByteWriter};

/// One named section of the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (`kernel/procs`, `sched`, `cider`, ...).
    pub name: String,
    /// Ordered `(key, value)` records.
    pub records: Vec<(String, String)>,
}

/// The full observable device state at one instant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StateImage {
    /// Sections in capture order.
    pub sections: Vec<Section>,
}

impl StateImage {
    /// An empty image.
    pub fn new() -> StateImage {
        StateImage::default()
    }

    /// Appends a section.
    pub fn push_section(
        &mut self,
        name: impl Into<String>,
        records: Vec<(String, String)>,
    ) {
        self.sections.push(Section {
            name: name.into(),
            records,
        });
    }

    /// Looks a section up by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Total records across all sections.
    pub fn record_count(&self) -> usize {
        self.sections.iter().map(|s| s.records.len()).sum()
    }

    /// Encodes the image with the crate wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encodes into an existing writer (used by the checkpoint frame).
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.sections.len() as u32);
        for s in &self.sections {
            w.put_str(&s.name);
            w.put_u32(s.records.len() as u32);
            for (k, v) in &s.records {
                w.put_str(k);
                w.put_str(v);
            }
        }
    }

    /// Decodes an image; `None` on truncation or malformed UTF-8.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Option<StateImage> {
        let n_sections = r.get_u32()? as usize;
        // A section header costs at least 8 bytes; reject counts the
        // remaining bytes cannot possibly hold instead of allocating.
        if n_sections > r.remaining() / 8 + 1 {
            return None;
        }
        let mut sections = Vec::with_capacity(n_sections);
        for _ in 0..n_sections {
            let name = r.get_str()?;
            let n_records = r.get_u32()? as usize;
            if n_records > r.remaining() / 8 + 1 {
                return None;
            }
            let mut records = Vec::with_capacity(n_records);
            for _ in 0..n_records {
                let k = r.get_str()?;
                let v = r.get_str()?;
                records.push((k, v));
            }
            sections.push(Section { name, records });
        }
        Some(StateImage { sections })
    }

    /// Decodes from a standalone byte buffer.
    pub fn from_bytes(bytes: &[u8]) -> Option<StateImage> {
        let mut r = ByteReader::new(bytes);
        let img = StateImage::decode_from(&mut r)?;
        (r.remaining() == 0).then_some(img)
    }

    /// FNV-1a digest of the encoded image: the O(1)-comparable
    /// identity bisection probes use.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }

    /// Section-by-section structural diff against another image.
    /// Empty result iff the images are equal.
    pub fn diff(&self, other: &StateImage) -> Vec<SectionDelta> {
        let mut deltas = Vec::new();
        let names: Vec<&str> = {
            let mut names: Vec<&str> =
                self.sections.iter().map(|s| s.name.as_str()).collect();
            for s in &other.sections {
                if !names.contains(&s.name.as_str()) {
                    names.push(&s.name);
                }
            }
            names
        };
        for name in names {
            let a = self.section(name);
            let b = other.section(name);
            let mut delta = SectionDelta {
                section: name.to_string(),
                only_left: Vec::new(),
                only_right: Vec::new(),
                changed: Vec::new(),
            };
            let empty: Vec<(String, String)> = Vec::new();
            let ra = a.map(|s| &s.records).unwrap_or(&empty);
            let rb = b.map(|s| &s.records).unwrap_or(&empty);
            for (k, v) in ra {
                match rb.iter().find(|(rk, _)| rk == k) {
                    None => delta.only_left.push((k.clone(), v.clone())),
                    Some((_, rv)) if rv != v => {
                        delta.changed.push((k.clone(), v.clone(), rv.clone()))
                    }
                    Some(_) => {}
                }
            }
            for (k, v) in rb {
                if !ra.iter().any(|(lk, _)| lk == k) {
                    delta.only_right.push((k.clone(), v.clone()));
                }
            }
            if !delta.is_empty() {
                deltas.push(delta);
            }
        }
        deltas
    }
}

/// The difference of one section between two images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDelta {
    /// Which section disagreed.
    pub section: String,
    /// Records present only in the left image.
    pub only_left: Vec<(String, String)>,
    /// Records present only in the right image.
    pub only_right: Vec<(String, String)>,
    /// Records present in both with different values:
    /// `(key, left, right)`.
    pub changed: Vec<(String, String, String)>,
}

impl SectionDelta {
    /// Whether the delta carries no differences.
    pub fn is_empty(&self) -> bool {
        self.only_left.is_empty()
            && self.only_right.is_empty()
            && self.changed.is_empty()
    }

    /// Differing records in this section.
    pub fn len(&self) -> usize {
        self.only_left.len() + self.only_right.len() + self.changed.len()
    }
}

impl fmt::Display for SectionDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}]", self.section)?;
        for (k, v) in &self.only_left {
            writeln!(f, "  - {k} = {v}")?;
        }
        for (k, v) in &self.only_right {
            writeln!(f, "  + {k} = {v}")?;
        }
        for (k, l, r) in &self.changed {
            writeln!(f, "  ~ {k}: {l} -> {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateImage {
        let mut img = StateImage::new();
        img.push_section("clock", vec![("now_ns".into(), "1500".into())]);
        img.push_section(
            "kernel/procs",
            vec![
                ("pid:1".into(), "running cwd=/".into()),
                ("pid:2".into(), "zombie(0)".into()),
            ],
        );
        img
    }

    #[test]
    fn encode_decode_round_trip() {
        let img = sample();
        let bytes = img.to_bytes();
        assert_eq!(StateImage::from_bytes(&bytes), Some(img.clone()));
        // Byte-stable: two encodings are identical.
        assert_eq!(bytes, img.to_bytes());
    }

    #[test]
    fn digest_distinguishes_and_matches() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.digest(), b.digest());
        b.sections[0].records[0].1 = "1501".into();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn diff_reports_changed_missing_and_extra() {
        let a = sample();
        let mut b = sample();
        b.sections[1].records[0].1 = "running cwd=/tmp".into();
        b.sections[1].records.remove(1);
        b.push_section("gfx", vec![("retired".into(), "3".into())]);

        let deltas = a.diff(&b);
        assert_eq!(deltas.len(), 2);
        let procs = &deltas[0];
        assert_eq!(procs.section, "kernel/procs");
        assert_eq!(procs.changed.len(), 1);
        assert_eq!(procs.only_left.len(), 1);
        let gfx = &deltas[1];
        assert_eq!(gfx.section, "gfx");
        assert_eq!(gfx.only_right.len(), 1);

        assert!(a.diff(&a.clone()).is_empty());
    }

    #[test]
    fn truncated_bytes_do_not_decode() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                StateImage::from_bytes(&bytes[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }
}
