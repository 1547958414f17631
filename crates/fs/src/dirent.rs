//! FAT directory entries.
//!
//! The paper's benchmark file system is derived from the EFSL FAT
//! implementation: "Each directory contains 1,000 entries, and each entry
//! uses 32 bytes of memory." This module implements the classic 32-byte
//! FAT directory entry with 8.3 names.

/// Size of one directory entry in bytes.
pub const DIRENT_SIZE: usize = 32;

/// Attribute flag: plain file (archive bit).
pub const ATTR_ARCHIVE: u8 = 0x20;

/// A 32-byte FAT directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// File name, space padded (8 bytes).
    pub name: [u8; 8],
    /// Extension, space padded (3 bytes).
    pub ext: [u8; 3],
    /// Attribute bits.
    pub attr: u8,
    /// First cluster of the file's data.
    pub first_cluster: u16,
    /// File size in bytes.
    pub size: u32,
}

impl DirEntry {
    /// Creates a file entry from a `NAME.EXT` style name.
    pub fn file(name: &str, first_cluster: u16, size: u32) -> Self {
        let (n, e) = split_8_3(name);
        Self {
            name: n,
            ext: e,
            attr: ATTR_ARCHIVE,
            first_cluster,
            size,
        }
    }

    /// Creates a file entry whose name is the canonical `key`.
    pub fn with_key(key: NameKey, first_cluster: u16, size: u32) -> Self {
        let mut name = [0u8; 8];
        let mut ext = [0u8; 3];
        name.copy_from_slice(&key.0[..8]);
        ext.copy_from_slice(&key.0[8..]);
        Self {
            name,
            ext,
            attr: ATTR_ARCHIVE,
            first_cluster,
            size,
        }
    }

    /// The entry's name in `NAME.EXT` form (trailing spaces stripped).
    pub fn display_name(&self) -> String {
        let name = String::from_utf8_lossy(&self.name).trim_end().to_string();
        let ext = String::from_utf8_lossy(&self.ext).trim_end().to_string();
        if ext.is_empty() {
            name
        } else {
            format!("{name}.{ext}")
        }
    }

    /// Whether the entry matches a `NAME.EXT` style name (case-insensitive,
    /// as FAT names are stored upper-case).
    pub fn matches(&self, name: &str) -> bool {
        let (n, e) = split_8_3(name);
        self.name == n && self.ext == e
    }

    /// Serializes the entry into its 32-byte on-disk form.
    pub fn encode(&self) -> [u8; DIRENT_SIZE] {
        let mut out = [0u8; DIRENT_SIZE];
        out[0..8].copy_from_slice(&self.name);
        out[8..11].copy_from_slice(&self.ext);
        out[11] = self.attr;
        // Bytes 12..26 are reserved / timestamps; left zero.
        out[26..28].copy_from_slice(&self.first_cluster.to_le_bytes());
        out[28..32].copy_from_slice(&self.size.to_le_bytes());
        out
    }

    /// Parses a 32-byte on-disk entry.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < DIRENT_SIZE {
            return None;
        }
        let mut name = [0u8; 8];
        let mut ext = [0u8; 3];
        name.copy_from_slice(&bytes[0..8]);
        ext.copy_from_slice(&bytes[8..11]);
        Some(Self {
            name,
            ext,
            attr: bytes[11],
            first_cluster: u16::from_le_bytes([bytes[26], bytes[27]]),
            size: u32::from_le_bytes([bytes[28], bytes[29], bytes[30], bytes[31]]),
        })
    }
}

/// An 8.3 name in canonical form: the 11 bytes (space-padded, upper-cased
/// name then extension) stored in a [`DirEntry`], so two names are equal
/// exactly when [`DirEntry::matches`] would say so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameKey([u8; 11]);

impl NameKey {
    /// Canonicalises a `NAME.EXT` style string into a key.
    pub fn new(name: &str) -> Self {
        let (n, e) = split_8_3(name);
        let mut bytes = [0u8; 11];
        bytes[..8].copy_from_slice(&n);
        bytes[8..].copy_from_slice(&e);
        Self(bytes)
    }

    /// The key of [`synthetic_name`]`(i)`, spelled with digit arithmetic
    /// instead of formatting and parsing a string: `F`, seven digits,
    /// `DAT`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`SYNTHETIC_SERIALS`].
    pub fn synthetic(i: u32) -> Self {
        assert!(
            i < SYNTHETIC_SERIALS,
            "synthetic serial {i} needs more than seven digits"
        );
        let mut bytes = *b"F0000000DAT";
        let mut n = i;
        for b in bytes[1..8].iter_mut().rev() {
            *b = b'0' + (n % 10) as u8;
            n /= 10;
        }
        Self(bytes)
    }

    /// The 11 canonical bytes, as stored at the start of an entry.
    pub(crate) fn bytes(&self) -> &[u8; 11] {
        &self.0
    }

    /// The serial `i` whose [`NameKey::synthetic`] this key is, if it is
    /// one: `F`, seven digits, `DAT`.
    pub(crate) fn synthetic_serial(self) -> Option<u32> {
        let [b'F', digits @ .., b'D', b'A', b'T'] = self.0 else {
            return None;
        };
        digits.iter().try_fold(0u32, |n, &b| {
            b.is_ascii_digit().then(|| n * 10 + u32::from(b - b'0'))
        })
    }
}

/// Splits a `NAME.EXT` string into space-padded, upper-cased 8.3 fields,
/// truncating over-long components.
pub fn split_8_3(name: &str) -> ([u8; 8], [u8; 3]) {
    let mut n = [b' '; 8];
    let mut e = [b' '; 3];
    let (base, ext) = match name.rsplit_once('.') {
        Some((b, x)) => (b, x),
        None => (name, ""),
    };
    for (i, c) in base.bytes().take(8).enumerate() {
        n[i] = c.to_ascii_uppercase();
    }
    for (i, c) in ext.bytes().take(3).enumerate() {
        e[i] = c.to_ascii_uppercase();
    }
    (n, e)
}

/// Serials [`synthetic_name`] spells as distinct 8.3 names: from 10^7 on
/// the name gains an eighth digit and truncation aliases it with an
/// earlier one.
pub const SYNTHETIC_SERIALS: u32 = 10_000_000;

/// Generates the deterministic name of the `i`-th synthetic file in a
/// benchmark directory (e.g. `F0000042.DAT`).
pub fn synthetic_name(i: u32) -> String {
    format!("F{i:07}.DAT")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_exactly_32_bytes() {
        let e = DirEntry::file("HELLO.TXT", 7, 1234);
        assert_eq!(e.encode().len(), DIRENT_SIZE);
    }

    #[test]
    fn encode_decode_round_trip() {
        let e = DirEntry::file("readme.md", 42, 9_999);
        let d = DirEntry::decode(&e.encode()).unwrap();
        assert_eq!(e, d);
        assert_eq!(d.display_name(), "README.MD");
    }

    #[test]
    fn split_8_3_pads_truncates_and_uppercases() {
        let (n, e) = split_8_3("abc.t");
        assert_eq!(&n, b"ABC     ");
        assert_eq!(&e, b"T  ");
        let (n, e) = split_8_3("averylongname.text");
        assert_eq!(&n, b"AVERYLON");
        assert_eq!(&e, b"TEX");
        let (n, e) = split_8_3("noext");
        assert_eq!(&n, b"NOEXT   ");
        assert_eq!(&e, b"   ");
    }

    #[test]
    fn matches_is_case_insensitive() {
        let e = DirEntry::file("File.Dat", 0, 0);
        assert!(e.matches("FILE.DAT"));
        assert!(e.matches("file.dat"));
        assert!(!e.matches("OTHER.DAT"));
    }

    #[test]
    fn name_keys_match_entry_equivalence() {
        // Two spellings that `matches` treats as equal map to one key.
        assert_eq!(NameKey::new("file.dat"), NameKey::new("FILE.DAT"));
        assert_ne!(NameKey::new("FILE.DAT"), NameKey::new("OTHER.DAT"));
    }

    #[test]
    fn decode_rejects_short_buffers() {
        assert!(DirEntry::decode(&[0u8; 10]).is_none());
    }

    #[test]
    fn synthetic_names_are_unique_and_valid() {
        let a = synthetic_name(1);
        let b = synthetic_name(999_999);
        assert_ne!(a, b);
        let e = DirEntry::file(&a, 0, 0);
        assert!(e.matches(&a));
        let e = DirEntry::file(&b, 0, 0);
        assert!(e.matches(&b));
    }

    #[test]
    fn synthetic_keys_spell_synthetic_names() {
        for i in [0, 9, 10, 999_999, 1_000_000, SYNTHETIC_SERIALS - 1] {
            let key = NameKey::synthetic(i);
            assert_eq!(key, NameKey::new(&synthetic_name(i)), "serial {i}");
            assert_eq!(
                DirEntry::with_key(key, 3, 64),
                DirEntry::file(&synthetic_name(i), 3, 64)
            );
        }
    }

    #[test]
    fn synthetic_serials_decode_synthetic_keys_only() {
        for i in [0, 1, 42, 999_999, SYNTHETIC_SERIALS - 1] {
            assert_eq!(NameKey::synthetic(i).synthetic_serial(), Some(i));
        }
        // Canonicalisation upper-cases and truncates before decoding.
        assert_eq!(NameKey::new("f0000007.dat").synthetic_serial(), Some(7));
        assert_eq!(NameKey::new("F00000012.DAT").synthetic_serial(), Some(1));
        for name in ["F00000X1.DAT", "FOO.TXT", "G0000001.DAT", "F0000001.TXT"] {
            assert_eq!(NameKey::new(name).synthetic_serial(), None, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "more than seven digits")]
    fn synthetic_keys_refuse_serials_that_would_alias() {
        // F10000000.DAT truncates to F1000000, serial 1,000,000's name.
        NameKey::synthetic(SYNTHETIC_SERIALS);
    }
}
