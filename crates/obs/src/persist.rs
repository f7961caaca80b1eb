//! Crash-safe file replacement for persisted state — engine checkpoints
//! and explain-index sidecars both write through it.
//!
//! The new contents go to a temporary file in the target's directory,
//! which is synced and then renamed over the target, so a crash leaves
//! either the previous file or the new one, never a torn file. Writing
//! is split in two ([`stage`], then [`StagedFile::commit`]) so a test can
//! stop a save before its rename.

use std::io::Write;
use std::path::{Path, PathBuf};

/// New contents written and synced beside their target, not yet in
/// place.
#[derive(Debug)]
pub struct StagedFile {
    temp: PathBuf,
    target: PathBuf,
    dir: PathBuf,
}

/// Write `bytes` to a temporary file beside `path` (named `path` plus
/// `.tmp`) and sync it. `path` itself is not touched until
/// [`StagedFile::commit`].
pub fn stage(path: &Path, bytes: &[u8]) -> std::io::Result<StagedFile> {
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir)?;
    let mut name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("path names no file"))?
        .to_os_string();
    name.push(".tmp");
    let temp = dir.join(name);
    let mut file = std::fs::File::create(&temp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(StagedFile {
        temp,
        target: path.to_path_buf(),
        dir,
    })
}

impl StagedFile {
    /// The temporary file holding the new contents.
    pub fn temp_path(&self) -> &Path {
        &self.temp
    }

    /// Rename the temporary file over the target (atomic within one
    /// directory), then sync the directory so the rename itself survives
    /// a crash where the platform allows opening directories.
    pub fn commit(self) -> std::io::Result<()> {
        std::fs::rename(&self.temp, &self.target)?;
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            dir.sync_all().ok();
        }
        Ok(())
    }
}
