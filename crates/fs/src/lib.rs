//! # o2-fs — an EFSL-style in-memory FAT file system
//!
//! The paper's evaluation (Section 5) benchmarks directory lookups over a
//! file system "derived from the EFSL FAT implementation", modified to use
//! an in-memory image, no buffer cache, a fast lookup inner loop and
//! per-directory spin locks. This crate rebuilds that substrate:
//!
//! * classic 32-byte FAT directory entries with 8.3 names ([`dirent`]),
//! * a FAT16-style allocation table with cluster chains, allocated
//!   first-fit from a low-water mark ([`fat`]),
//! * an in-memory volume whose benchmark directories (1,000 entries of
//!   32 bytes each, as in the paper) can be mapped into the simulated
//!   physical address space ([`volume`]),
//! * annotated lookup operations — `ct_start(dir)`, lock, scan, unlock,
//!   `ct_end()` — exactly as in Figure 3 of the paper ([`lookup`]).
//!
//! ```
//! use o2_fs::{Volume, synthetic_name};
//!
//! let volume = Volume::build_benchmark(4, 1000).unwrap();
//! assert_eq!(volume.total_directory_bytes(), 4 * 32_000);
//! let (idx, examined) = volume.search(2, &synthetic_name(10)).unwrap().unwrap();
//! assert_eq!((idx, examined), (10, 11));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dirent;
pub mod fat;
pub mod lookup;
pub mod volume;

pub use dirent::{
    split_8_3, synthetic_name, DirEntry, NameKey, ATTR_ARCHIVE, ATTR_DIRECTORY, DIRENT_SIZE,
    SYNTHETIC_SERIALS,
};
pub use fat::{Fat, FatError, FAT_EOC, FAT_FREE, FIRST_DATA_CLUSTER, MAX_DATA_CLUSTERS};
pub use lookup::{
    directory_descriptor, lookup_actions, lookup_actions_kind, lookup_actions_unannotated, resolve,
    LookupCost, LookupOp,
};
pub use volume::{DirId, DirectoryHandle, Volume, VolumeError, VolumeGeometry, DELETED_MARKER};
