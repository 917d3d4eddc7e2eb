//! The SourceManager layer: assigns each loaded buffer a slice of the global
//! location space and decodes [`SourceLocation`]s back to file/line/column.

use crate::file_manager::MemoryBuffer;
use crate::location::SourceLocation;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a loaded file inside a [`SourceManager`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct FileId(pub u32);

struct FileEntry {
    buffer: Arc<MemoryBuffer>,
    /// Global offset of this file's first byte (location `base_offset + i`
    /// refers to byte `i` of the buffer).
    base_offset: u32,
    /// Byte offsets of each line start, computed lazily on first query.
    line_starts: std::cell::OnceCell<Vec<u32>>,
}

/// Decoded human-readable position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PresumedLoc {
    /// File name the location belongs to.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

/// Maps flat locations to files/lines/columns, and synthetic (generated-code)
/// locations back to a representative literal location (paper §2).
#[derive(Default)]
pub struct SourceManager {
    files: Vec<FileEntry>,
    next_offset: u32,
    /// synthetic-location index → (representative literal location, origin
    /// description such as `#pragma omp unroll partial(2)`).
    transformed: HashMap<u32, (SourceLocation, String)>,
    next_synthetic: u32,
}

impl SourceManager {
    /// Creates an empty source manager. Offset 0 is reserved for the invalid
    /// location, so the first file starts at offset 1.
    pub fn new() -> Self {
        SourceManager {
            files: Vec::new(),
            next_offset: 1,
            transformed: HashMap::new(),
            next_synthetic: 0,
        }
    }

    /// Registers `buffer` and returns its id plus the location of its first
    /// byte.
    pub fn add_file(&mut self, buffer: Arc<MemoryBuffer>) -> (FileId, SourceLocation) {
        let base = self.next_offset;
        let len = u32::try_from(buffer.len()).expect("buffer too large for 32-bit location space");
        self.next_offset = base
            .checked_add(len)
            .and_then(|o| o.checked_add(1)) // +1: a location one past the end is representable
            .expect("source location space exhausted");
        let id = FileId(self.files.len() as u32);
        self.files.push(FileEntry {
            buffer,
            base_offset: base,
            line_starts: std::cell::OnceCell::new(),
        });
        (id, SourceLocation::from_raw(base))
    }

    /// The buffer backing `id`.
    pub fn buffer(&self, id: FileId) -> &Arc<MemoryBuffer> {
        &self.files[id.0 as usize].buffer
    }

    /// The location of byte `offset` within file `id`.
    pub fn loc_for_offset(&self, id: FileId, offset: u32) -> SourceLocation {
        let entry = &self.files[id.0 as usize];
        debug_assert!(offset as usize <= entry.buffer.len());
        SourceLocation::from_raw(entry.base_offset + offset)
    }

    /// Finds the file containing `loc` (not valid for synthetic locations).
    pub fn file_of(&self, loc: SourceLocation) -> Option<FileId> {
        if !loc.is_valid() || loc.is_synthetic() {
            return None;
        }
        let raw = loc.raw();
        // Files are registered with increasing base offsets; binary-search the
        // partition point.
        let idx = self.files.partition_point(|f| f.base_offset <= raw);
        if idx == 0 {
            return None;
        }
        let entry = &self.files[idx - 1];
        // A location one past the end still belongs to the file (EOF diags).
        if (raw - entry.base_offset) as usize <= entry.buffer.len() {
            Some(FileId((idx - 1) as u32))
        } else {
            None
        }
    }

    /// Decodes `loc` into file/line/column. Synthetic locations are first
    /// mapped through [`SourceManager::map_transformed`].
    pub fn presumed_loc(&self, loc: SourceLocation) -> Option<PresumedLoc> {
        let loc = if loc.is_synthetic() {
            self.map_transformed(loc)?.0
        } else {
            loc
        };
        let file = self.file_of(loc)?;
        let entry = &self.files[file.0 as usize];
        let off = loc.raw() - entry.base_offset;
        let starts = entry.line_starts.get_or_init(|| {
            let mut v = vec![0u32];
            for (i, b) in entry.buffer.data().bytes().enumerate() {
                if b == b'\n' {
                    v.push(i as u32 + 1);
                }
            }
            v
        });
        let line_idx = starts.partition_point(|&s| s <= off).saturating_sub(1);
        Some(PresumedLoc {
            file: entry.buffer.name().to_string(),
            line: line_idx as u32 + 1,
            col: off - starts[line_idx] + 1,
        })
    }

    /// The full text of the line containing `loc` (without trailing newline),
    /// for caret diagnostics.
    pub fn line_text(&self, loc: SourceLocation) -> Option<String> {
        let loc = if loc.is_synthetic() {
            self.map_transformed(loc)?.0
        } else {
            loc
        };
        let file = self.file_of(loc)?;
        let entry = &self.files[file.0 as usize];
        let data = entry.buffer.data();
        let mut off = ((loc.raw() - entry.base_offset) as usize).min(data.len());
        // The lexer scans bytes, so a diagnostic location can land inside a
        // multi-byte character; snap back to a boundary before slicing.
        while off > 0 && !data.is_char_boundary(off) {
            off -= 1;
        }
        let begin = data[..off].rfind('\n').map_or(0, |i| i + 1);
        let end = data[begin..].find('\n').map_or(data.len(), |i| begin + i);
        Some(data[begin..end].to_string())
    }

    /// Allocates a synthetic location for compiler-generated code whose
    /// diagnostics should point at `representative` (the literal loop the
    /// transformation was applied to), with `origin` describing the directive
    /// that generated it. This is the paper's "representative source location
    /// for the associated literal loop" mechanism.
    pub fn create_transformed_loc(
        &mut self,
        representative: SourceLocation,
        origin: impl Into<String>,
    ) -> SourceLocation {
        let idx = self.next_synthetic;
        self.next_synthetic += 1;
        self.transformed
            .insert(idx, (representative, origin.into()));
        SourceLocation::synthetic(idx)
    }

    /// Resolves a synthetic location to its representative literal location
    /// and originating-directive description.
    pub fn map_transformed(&self, loc: SourceLocation) -> Option<(SourceLocation, &str)> {
        if !loc.is_synthetic() {
            return None;
        }
        let idx = loc.raw() - SourceLocation::synthetic(0).raw();
        self.transformed.get(&idx).map(|(l, s)| (*l, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file_manager::FileManager;

    fn sm_with(text: &str) -> (SourceManager, FileId, SourceLocation) {
        let mut fm = FileManager::new();
        let buf = fm.add_virtual_file("t.c", text);
        let mut sm = SourceManager::new();
        let (id, start) = sm.add_file(buf);
        (sm, id, start)
    }

    #[test]
    fn first_file_starts_at_one() {
        let (_, _, start) = sm_with("abc");
        assert_eq!(start.raw(), 1);
    }

    #[test]
    fn presumed_loc_lines_and_cols() {
        let (sm, id, _) = sm_with("int x;\nint y;\n");
        let l = sm.loc_for_offset(id, 0);
        assert_eq!(
            sm.presumed_loc(l).unwrap(),
            PresumedLoc {
                file: "t.c".into(),
                line: 1,
                col: 1
            }
        );
        let l = sm.loc_for_offset(id, 7); // 'i' of "int y;"
        assert_eq!(
            sm.presumed_loc(l).unwrap(),
            PresumedLoc {
                file: "t.c".into(),
                line: 2,
                col: 1
            }
        );
        let l = sm.loc_for_offset(id, 11); // 'y'
        let p = sm.presumed_loc(l).unwrap();
        assert_eq!((p.line, p.col), (2, 5));
    }

    #[test]
    fn two_files_disjoint_ranges() {
        let mut fm = FileManager::new();
        let a = fm.add_virtual_file("a.c", "aaaa");
        let b = fm.add_virtual_file("b.c", "bb");
        let mut sm = SourceManager::new();
        let (ia, _) = sm.add_file(a);
        let (ib, _) = sm.add_file(b);
        let la = sm.loc_for_offset(ia, 2);
        let lb = sm.loc_for_offset(ib, 1);
        assert_eq!(sm.file_of(la), Some(ia));
        assert_eq!(sm.file_of(lb), Some(ib));
        assert_eq!(sm.presumed_loc(lb).unwrap().file, "b.c");
    }

    #[test]
    fn line_text_extraction() {
        let (sm, id, _) = sm_with("first line\nsecond line\n");
        let l = sm.loc_for_offset(id, 14);
        assert_eq!(sm.line_text(l).unwrap(), "second line");
        let l0 = sm.loc_for_offset(id, 3);
        assert_eq!(sm.line_text(l0).unwrap(), "first line");
    }

    #[test]
    fn transformed_location_maps_back() {
        let (mut sm, id, _) = sm_with("for (int i = 0; i < 10; ++i)\n  ;\n");
        let rep = sm.loc_for_offset(id, 0);
        let syn = sm.create_transformed_loc(rep, "#pragma omp unroll partial(2)");
        assert!(syn.is_synthetic());
        let (mapped, origin) = sm.map_transformed(syn).unwrap();
        assert_eq!(mapped, rep);
        assert_eq!(origin, "#pragma omp unroll partial(2)");
        // presumed_loc transparently follows the mapping
        let p = sm.presumed_loc(syn).unwrap();
        assert_eq!((p.line, p.col), (1, 1));
    }

    #[test]
    fn invalid_loc_decodes_to_none() {
        let (sm, _, _) = sm_with("x");
        assert!(sm.presumed_loc(SourceLocation::INVALID).is_none());
        assert!(sm.file_of(SourceLocation::INVALID).is_none());
    }

    #[test]
    fn end_of_file_location_is_attributed() {
        let (sm, id, _) = sm_with("ab");
        // one-past-the-end location still belongs to the file (needed for
        // EOF diagnostics)
        let l = sm.loc_for_offset(id, 2);
        assert_eq!(sm.file_of(l), Some(id));
    }
}
