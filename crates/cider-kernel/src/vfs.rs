//! In-memory virtual filesystem with overlay support.
//!
//! Cider "overlays a file system hierarchy on the existing Android FS"
//! (paper §3) so that iOS apps see familiar paths such as `/Documents` and
//! `/System/Library` while Android apps keep seeing the stock tree. The
//! [`Vfs`] models this with a *lower* (domestic) tree and an optional
//! *upper* (foreign overlay) tree sharing one node arena: resolution
//! prefers the upper tree and falls back to the lower one.
//!
//! Path resolution reports how many components were walked so the kernel
//! can charge virtual time per component — the cost that makes dyld's
//! 115-library filesystem walk expensive in the paper's `fork+exec(ios)`
//! measurement.

use std::collections::BTreeMap;

use cider_abi::errno::Errno;
use cider_abi::types::{FileType, Stat};

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u64);

/// Identifier of a registered character device, resolved through the
/// kernel's device registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

#[derive(Debug, Clone)]
enum NodeKind {
    Dir(BTreeMap<String, Ino>),
    File(Vec<u8>),
    Symlink(String),
    Device(DeviceId),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    mode: u32,
    nlink: u32,
    mtime_ns: u64,
}

/// Result of a path resolution: the inode plus the accounting the kernel
/// needs to charge virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The resolved inode.
    pub ino: Ino,
    /// Path components traversed, including fallback walks.
    pub components_walked: usize,
    /// Whether the final hit was in the overlay (upper) tree.
    pub in_overlay: bool,
}

/// Which tree a path resolved (or would resolve) in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    Upper,
    Lower,
}

/// Maximum symlink expansions before `ELOOP`.
const MAX_SYMLINK_DEPTH: usize = 8;

/// An in-memory filesystem with a domestic tree and an optional foreign
/// overlay tree.
///
/// # Example
///
/// ```
/// use cider_kernel::vfs::Vfs;
///
/// let mut fs = Vfs::new();
/// fs.mkdir_p("/data/app").unwrap();
/// fs.write_file("/data/app/readme", b"hi".to_vec()).unwrap();
/// assert_eq!(fs.read_file("/data/app/readme").unwrap(), b"hi");
/// ```
#[derive(Debug, Clone)]
pub struct Vfs {
    nodes: BTreeMap<u64, Node>,
    next_ino: u64,
    root_lower: Ino,
    root_upper: Option<Ino>,
    now_ns: u64,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates an empty filesystem with a lower root directory.
    pub fn new() -> Vfs {
        let mut fs = Vfs {
            nodes: BTreeMap::new(),
            next_ino: 1,
            root_lower: Ino(0),
            root_upper: None,
            now_ns: 0,
        };
        fs.root_lower = fs.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
        fs
    }

    /// Installs an (initially empty) overlay tree; foreign paths are
    /// created in and resolved from it first. Idempotent; returns the
    /// overlay root.
    pub fn enable_overlay(&mut self) -> Ino {
        if let Some(r) = self.root_upper {
            return r;
        }
        let r = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
        self.root_upper = Some(r);
        r
    }

    /// Whether the foreign overlay is mounted.
    pub fn overlay_enabled(&self) -> bool {
        self.root_upper.is_some()
    }

    /// Sets the timestamp recorded on subsequently modified nodes.
    pub fn set_time(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    fn alloc(&mut self, kind: NodeKind, mode: u32) -> Ino {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        self.nodes.insert(
            ino.0,
            Node {
                kind,
                mode,
                nlink: 1,
                mtime_ns: self.now_ns,
            },
        );
        ino
    }

    /// Infallible lookup for inodes that were just produced by a tree
    /// walk (they cannot dangle while the walk's borrow is fresh).
    fn node(&self, ino: Ino) -> &Node {
        self.nodes.get(&ino.0).expect("dangling inode")
    }

    fn node_mut(&mut self, ino: Ino) -> &mut Node {
        self.nodes.get_mut(&ino.0).expect("dangling inode")
    }

    /// Fallible lookup for inodes held across calls (descriptor
    /// tables): the file may have been unlinked since, which surfaces
    /// as `EIO` instead of a panic — stale-handle semantics.
    fn try_node(&self, ino: Ino) -> Result<&Node, Errno> {
        self.nodes.get(&ino.0).ok_or(Errno::EIO)
    }

    fn try_node_mut(&mut self, ino: Ino) -> Result<&mut Node, Errno> {
        self.nodes.get_mut(&ino.0).ok_or(Errno::EIO)
    }

    fn split(path: &str) -> Result<Vec<&str>, Errno> {
        if !path.starts_with('/') {
            return Err(Errno::EINVAL);
        }
        Ok(path
            .split('/')
            .filter(|c| !c.is_empty() && *c != ".")
            .collect())
    }

    fn walk_tree(
        &self,
        root: Ino,
        comps: &[&str],
        walked: &mut usize,
        depth: usize,
    ) -> Result<Ino, Errno> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(Errno::ELOOP);
        }
        let mut cur = root;
        let mut stack: Vec<Ino> = vec![root];
        let mut i = 0;
        while i < comps.len() {
            let comp = comps[i];
            *walked += 1;
            if comp == ".." {
                stack.pop();
                cur = stack.last().copied().unwrap_or(root);
                i += 1;
                continue;
            }
            let next = match &self.node(cur).kind {
                NodeKind::Dir(entries) => {
                    *entries.get(comp).ok_or(Errno::ENOENT)?
                }
                _ => return Err(Errno::ENOTDIR),
            };
            if let NodeKind::Symlink(target) = &self.node(next).kind {
                let target = target.clone();
                let tcomps = Self::split(&target)?;
                let resolved =
                    self.walk_tree(root, &tcomps, walked, depth + 1)?;
                cur = resolved;
                stack.push(resolved);
                i += 1;
                continue;
            }
            cur = next;
            stack.push(next);
            i += 1;
        }
        Ok(cur)
    }

    /// Resolves an absolute path, preferring the overlay.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the path exists in neither tree, `ENOTDIR` when a
    /// non-directory appears mid-path, `ELOOP` on symlink cycles,
    /// `EINVAL` for relative paths.
    pub fn resolve(&self, path: &str) -> Result<Resolved, Errno> {
        let comps = Self::split(path)?;
        let mut walked = 0;
        if let Some(upper) = self.root_upper {
            if let Ok(ino) = self.walk_tree(upper, &comps, &mut walked, 0) {
                return Ok(Resolved {
                    ino,
                    components_walked: walked,
                    in_overlay: true,
                });
            }
        }
        let ino = self.walk_tree(self.root_lower, &comps, &mut walked, 0)?;
        Ok(Resolved {
            ino,
            components_walked: walked,
            in_overlay: false,
        })
    }

    /// Picks the tree a new entry under `parent_comps` should go to:
    /// upper if the parent resolves there, else lower.
    fn tree_for_create(&self, comps: &[&str]) -> Result<(Ino, Tree), Errno> {
        let mut walked = 0;
        if let Some(upper) = self.root_upper {
            if let Ok(parent) = self.walk_tree(upper, comps, &mut walked, 0) {
                return Ok((parent, Tree::Upper));
            }
        }
        let parent = self.walk_tree(self.root_lower, comps, &mut walked, 0)?;
        Ok((parent, Tree::Lower))
    }

    /// Creates a directory and all missing ancestors (in the tree where
    /// the deepest existing ancestor lives).
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if a path component is a file.
    pub fn mkdir_p(&mut self, path: &str) -> Result<Ino, Errno> {
        let comps = Self::split(path)?;
        let (mut cur, _) = self.tree_for_create(&[])?;
        for comp in &comps {
            if *comp == ".." {
                return Err(Errno::EINVAL);
            }
            let existing = match &self.node(cur).kind {
                NodeKind::Dir(entries) => entries.get(*comp).copied(),
                _ => return Err(Errno::ENOTDIR),
            };
            cur = match existing {
                Some(ino) => {
                    if !matches!(self.node(ino).kind, NodeKind::Dir(_)) {
                        return Err(Errno::ENOTDIR);
                    }
                    ino
                }
                None => {
                    let d = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
                    self.link(cur, comp, d)?;
                    d
                }
            };
        }
        Ok(cur)
    }

    /// Creates a directory in the *overlay* tree (enabling it if needed),
    /// used to build the iOS hierarchy.
    pub fn mkdir_p_overlay(&mut self, path: &str) -> Result<Ino, Errno> {
        let mut cur = self.enable_overlay();
        let comps = Self::split(path)?;
        for comp in &comps {
            let existing = match &self.node(cur).kind {
                NodeKind::Dir(entries) => entries.get(*comp).copied(),
                _ => return Err(Errno::ENOTDIR),
            };
            cur = match existing {
                Some(ino) => ino,
                None => {
                    let d = self.alloc(NodeKind::Dir(BTreeMap::new()), 0o755);
                    self.link(cur, comp, d)?;
                    d
                }
            };
        }
        Ok(cur)
    }

    fn link(&mut self, dir: Ino, name: &str, child: Ino) -> Result<(), Errno> {
        let now = self.now_ns;
        match &mut self.node_mut(dir).kind {
            NodeKind::Dir(entries) => {
                if entries.contains_key(name) {
                    return Err(Errno::EEXIST);
                }
                entries.insert(name.to_string(), child);
            }
            _ => return Err(Errno::ENOTDIR),
        }
        self.node_mut(dir).mtime_ns = now;
        Ok(())
    }

    fn parent_and_name(path: &str) -> Result<(Vec<&str>, &str), Errno> {
        let comps = Self::split(path)?;
        let (name, parent) = comps.split_last().ok_or(Errno::EINVAL)?;
        Ok((parent.to_vec(), name))
    }

    /// Creates (or truncates) a regular file with the given contents.
    ///
    /// # Errors
    ///
    /// `ENOENT` if the parent directory does not exist; `EISDIR` if the
    /// path names a directory.
    pub fn write_file(
        &mut self,
        path: &str,
        data: Vec<u8>,
    ) -> Result<Ino, Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let existing = match &self.node(parent).kind {
            NodeKind::Dir(entries) => entries.get(name).copied(),
            _ => return Err(Errno::ENOTDIR),
        };
        match existing {
            Some(ino) => {
                let now = self.now_ns;
                let node = self.node_mut(ino);
                match &mut node.kind {
                    NodeKind::File(contents) => {
                        *contents = data;
                        node.mtime_ns = now;
                        Ok(ino)
                    }
                    NodeKind::Dir(_) => Err(Errno::EISDIR),
                    _ => Err(Errno::EINVAL),
                }
            }
            None => {
                let f = self.alloc(NodeKind::File(data), 0o644);
                self.link(parent, name, f)?;
                Ok(f)
            }
        }
    }

    /// Creates a file in the overlay tree, building missing ancestors.
    pub fn write_file_overlay(
        &mut self,
        path: &str,
        data: Vec<u8>,
    ) -> Result<Ino, Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let parent_path = format!("/{}", parent_comps.join("/"));
        let parent = self.mkdir_p_overlay(&parent_path)?;
        let f = self.alloc(NodeKind::File(data), 0o644);
        match self.link(parent, name, f) {
            Ok(()) => Ok(f),
            Err(Errno::EEXIST) => {
                // Overwrite.
                let now = self.now_ns;
                let entries = match &self.node(parent).kind {
                    NodeKind::Dir(e) => e.clone(),
                    _ => unreachable!(),
                };
                let ino = entries[name];
                let data = match &mut self.node_mut(f).kind {
                    NodeKind::File(d) => std::mem::take(d),
                    _ => unreachable!(),
                };
                self.nodes.remove(&f.0);
                let node = self.node_mut(ino);
                match &mut node.kind {
                    NodeKind::File(c) => {
                        *c = data;
                        node.mtime_ns = now;
                        Ok(ino)
                    }
                    _ => Err(Errno::EISDIR),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// `ENOENT` if absent, `EISDIR` if the path is a directory.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, Errno> {
        let r = self.resolve(path)?;
        match &self.node(r.ino).kind {
            NodeKind::File(data) => Ok(data.clone()),
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// File size without copying the contents.
    ///
    /// # Errors
    ///
    /// `EIO` if the inode was unlinked since it was resolved.
    pub fn file_len(&self, ino: Ino) -> Result<u64, Errno> {
        match &self.try_node(ino)?.kind {
            NodeKind::File(data) => Ok(data.len() as u64),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Reads up to `len` bytes at `offset` from an already-resolved file.
    ///
    /// # Errors
    ///
    /// `EIO` if the inode dangles (unlinked while a descriptor was
    /// still open), `EISDIR`/`EINVAL` for wrong node kinds.
    pub fn read_at(
        &self,
        ino: Ino,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, Errno> {
        match &self.try_node(ino)?.kind {
            NodeKind::File(data) => {
                let start = (offset as usize).min(data.len());
                let end = (start + len).min(data.len());
                Ok(data[start..end].to_vec())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Writes bytes at `offset`, extending the file as needed. Returns
    /// bytes written.
    pub fn write_at(
        &mut self,
        ino: Ino,
        offset: u64,
        buf: &[u8],
    ) -> Result<usize, Errno> {
        let now = self.now_ns;
        let node = self.try_node_mut(ino)?;
        match &mut node.kind {
            NodeKind::File(data) => {
                let off = offset as usize;
                if data.len() < off + buf.len() {
                    data.resize(off + buf.len(), 0);
                }
                data[off..off + buf.len()].copy_from_slice(buf);
                node.mtime_ns = now;
                Ok(buf.len())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Truncates (or extends with zeros) a regular file to `len` bytes.
    ///
    /// # Errors
    ///
    /// `EISDIR` for directories, `EINVAL` for other node kinds.
    pub fn truncate(&mut self, ino: Ino, len: u64) -> Result<(), Errno> {
        let now = self.now_ns;
        let node = self.try_node_mut(ino)?;
        match &mut node.kind {
            NodeKind::File(data) => {
                data.resize(len as usize, 0);
                node.mtime_ns = now;
                Ok(())
            }
            NodeKind::Dir(_) => Err(Errno::EISDIR),
            _ => Err(Errno::EINVAL),
        }
    }

    /// Removes a file or empty directory.
    ///
    /// # Errors
    ///
    /// `ENOTEMPTY` for non-empty directories, `ENOENT` if absent.
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        // Find which tree actually holds the entry.
        let trees: Vec<Ino> = self
            .root_upper
            .into_iter()
            .chain(Some(self.root_lower))
            .collect();
        for root in trees {
            let mut walked = 0;
            let Ok(parent) =
                self.walk_tree(root, &parent_comps, &mut walked, 0)
            else {
                continue;
            };
            let child = match &self.node(parent).kind {
                NodeKind::Dir(entries) => entries.get(name).copied(),
                _ => continue,
            };
            let Some(child) = child else { continue };
            if let NodeKind::Dir(entries) = &self.node(child).kind {
                if !entries.is_empty() {
                    return Err(Errno::ENOTEMPTY);
                }
            }
            let now = self.now_ns;
            if let NodeKind::Dir(entries) = &mut self.node_mut(parent).kind {
                entries.remove(name);
            }
            self.node_mut(parent).mtime_ns = now;
            self.nodes.remove(&child.0);
            return Ok(());
        }
        Err(Errno::ENOENT)
    }

    /// Creates a symlink at `path` pointing to `target`.
    pub fn symlink(&mut self, path: &str, target: &str) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let s = self.alloc(NodeKind::Symlink(target.to_string()), 0o777);
        self.link(parent, name, s)
    }

    /// Registers a character-device node.
    pub fn mknod_device(
        &mut self,
        path: &str,
        dev: DeviceId,
    ) -> Result<(), Errno> {
        let (parent_comps, name) = Self::parent_and_name(path)?;
        let (parent, _) = self.tree_for_create(&parent_comps)?;
        let n = self.alloc(NodeKind::Device(dev), 0o600);
        self.link(parent, name, n)
    }

    /// Returns the device id if the inode is a device node.
    pub fn device_of(&self, ino: Ino) -> Option<DeviceId> {
        match &self.node(ino).kind {
            NodeKind::Device(d) => Some(*d),
            _ => None,
        }
    }

    /// `stat` for a resolved inode.
    pub fn stat(&self, ino: Ino) -> Stat {
        let n = self.node(ino);
        let (file_type, size) = match &n.kind {
            NodeKind::Dir(e) => (FileType::Directory, e.len() as u64),
            NodeKind::File(d) => (FileType::Regular, d.len() as u64),
            NodeKind::Symlink(t) => (FileType::Symlink, t.len() as u64),
            NodeKind::Device(_) => (FileType::CharDevice, 0),
        };
        Stat {
            ino: ino.0,
            file_type,
            mode: n.mode,
            size,
            blocks: size.div_ceil(512),
            mtime_sec: (n.mtime_ns / 1_000_000_000) as i64,
            mtime_nsec: (n.mtime_ns % 1_000_000_000) as i64,
            nlink: n.nlink,
        }
    }

    /// Directory entries, merged across both trees for union semantics.
    ///
    /// # Errors
    ///
    /// `ENOTDIR` if the path is not a directory in any tree.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, Errno> {
        let comps = Self::split(path)?;
        let mut names = BTreeMap::new();
        let mut found = false;
        let mut not_dir = false;
        for root in self.root_upper.into_iter().chain(Some(self.root_lower)) {
            let mut walked = 0;
            if let Ok(ino) = self.walk_tree(root, &comps, &mut walked, 0) {
                match &self.node(ino).kind {
                    NodeKind::Dir(entries) => {
                        found = true;
                        for k in entries.keys() {
                            names.entry(k.clone()).or_insert(());
                        }
                    }
                    _ => not_dir = true,
                }
            }
        }
        if found {
            Ok(names.into_keys().collect())
        } else if not_dir {
            Err(Errno::ENOTDIR)
        } else {
            Err(Errno::ENOENT)
        }
    }

    /// Whether a path exists (in either tree).
    pub fn exists(&self, path: &str) -> bool {
        self.resolve(path).is_ok()
    }

    /// Total node count, exposed for leak-style assertions in tests.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mkdir_p_and_resolution() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a/b/c").unwrap();
        let r = fs.resolve("/a/b/c").unwrap();
        assert!(!r.in_overlay);
        assert_eq!(r.components_walked, 3);
        assert!(fs.exists("/a/b"));
        assert!(!fs.exists("/a/x"));
    }

    #[test]
    fn relative_paths_rejected() {
        let fs = Vfs::new();
        assert_eq!(fs.resolve("a/b"), Err(Errno::EINVAL));
    }

    #[test]
    fn file_roundtrip_and_truncate() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/data").unwrap();
        fs.write_file("/data/f", vec![1, 2, 3]).unwrap();
        assert_eq!(fs.read_file("/data/f").unwrap(), vec![1, 2, 3]);
        fs.write_file("/data/f", vec![9]).unwrap();
        assert_eq!(fs.read_file("/data/f").unwrap(), vec![9]);
    }

    #[test]
    fn write_file_requires_parent() {
        let mut fs = Vfs::new();
        assert_eq!(fs.write_file("/nope/f", vec![]), Err(Errno::ENOENT));
    }

    #[test]
    fn read_write_at_offsets() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![0; 4]).unwrap();
        fs.write_at(ino, 2, &[7, 8, 9]).unwrap();
        assert_eq!(fs.read_file("/d/f").unwrap(), vec![0, 0, 7, 8, 9]);
        assert_eq!(fs.read_at(ino, 3, 10).unwrap(), vec![8, 9]);
        assert_eq!(fs.read_at(ino, 100, 10).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn overlay_shadows_lower() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/etc").unwrap();
        fs.write_file("/etc/version", b"android".to_vec()).unwrap();
        fs.write_file_overlay("/etc/version", b"ios".to_vec())
            .unwrap();
        let r = fs.resolve("/etc/version").unwrap();
        assert!(r.in_overlay);
        assert_eq!(fs.read_file("/etc/version").unwrap(), b"ios");
    }

    #[test]
    fn overlay_falls_back_to_lower() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/system/bin").unwrap();
        fs.write_file("/system/bin/sh", b"elf".to_vec()).unwrap();
        fs.mkdir_p_overlay("/Documents").unwrap();
        assert!(fs.exists("/system/bin/sh"));
        assert!(fs.exists("/Documents"));
        let r = fs.resolve("/system/bin/sh").unwrap();
        assert!(!r.in_overlay);
    }

    #[test]
    fn readdir_merges_trees() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/usr/lib").unwrap();
        fs.write_file("/usr/lib/libc.so", vec![]).unwrap();
        fs.write_file_overlay("/usr/lib/libSystem.dylib", vec![])
            .unwrap();
        let names = fs.readdir("/usr/lib").unwrap();
        assert_eq!(names, vec!["libSystem.dylib", "libc.so"]);
    }

    #[test]
    fn unlink_files_and_empty_dirs() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/tmp/x").unwrap();
        fs.write_file("/tmp/f", vec![1]).unwrap();
        fs.unlink("/tmp/f").unwrap();
        assert!(!fs.exists("/tmp/f"));
        assert_eq!(fs.unlink("/tmp"), Err(Errno::ENOTEMPTY));
        fs.unlink("/tmp/x").unwrap();
        fs.unlink("/tmp").unwrap();
    }

    #[test]
    fn symlink_resolution_and_loops() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a").unwrap();
        fs.write_file("/a/real", b"data".to_vec()).unwrap();
        fs.symlink("/a/link", "/a/real").unwrap();
        assert_eq!(fs.read_file("/a/link").unwrap(), b"data");
        fs.symlink("/a/loop1", "/a/loop2").unwrap();
        fs.symlink("/a/loop2", "/a/loop1").unwrap();
        assert_eq!(fs.resolve("/a/loop1"), Err(Errno::ELOOP));
    }

    #[test]
    fn dotdot_navigation() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/a/b").unwrap();
        fs.write_file("/a/f", b"x".to_vec()).unwrap();
        assert_eq!(fs.read_file("/a/b/../f").unwrap(), b"x");
    }

    #[test]
    fn stat_reports_type_and_size() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![0; 1000]).unwrap();
        let st = fs.stat(ino);
        assert_eq!(st.file_type, FileType::Regular);
        assert_eq!(st.size, 1000);
        assert_eq!(st.blocks, 2);
    }

    #[test]
    fn device_nodes() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/dev").unwrap();
        fs.mknod_device("/dev/fb0", DeviceId(3)).unwrap();
        let r = fs.resolve("/dev/fb0").unwrap();
        assert_eq!(fs.device_of(r.ino), Some(DeviceId(3)));
        assert_eq!(fs.stat(r.ino).file_type, FileType::CharDevice);
    }

    #[test]
    fn dangling_inode_is_eio_not_panic() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/d").unwrap();
        let ino = fs.write_file("/d/f", vec![1, 2, 3]).unwrap();
        fs.unlink("/d/f").unwrap();
        // A descriptor opened before the unlink now holds a stale ino.
        assert_eq!(fs.read_at(ino, 0, 3), Err(Errno::EIO));
        assert_eq!(fs.write_at(ino, 0, &[9]), Err(Errno::EIO));
        assert_eq!(fs.truncate(ino, 0), Err(Errno::EIO));
        assert_eq!(fs.file_len(ino), Err(Errno::EIO));
    }

    #[test]
    fn components_walked_counts_fallback() {
        let mut fs = Vfs::new();
        fs.mkdir_p("/x/y").unwrap();
        let upper = fs.enable_overlay();
        assert_eq!(fs.enable_overlay(), upper, "idempotent");
        assert_eq!(fs.mkdir_p_overlay("/"), Ok(upper));
        // Miss in upper then hit in lower: both walks counted.
        let r = fs.resolve("/x/y").unwrap();
        assert!(r.components_walked >= 2);
    }
}
