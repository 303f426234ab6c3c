//! In-memory storage backend.

use crate::backend::StorageBackend;
use crate::PfsError;
use parking_lot::RwLock;
use std::collections::BTreeMap;

/// A thread-safe in-memory file store. This is the default backend for
/// experiments: contents live in RAM while all timing comes from the
/// trace-driven simulator, so experiments are fast *and* disk-faithful.
#[derive(Debug, Default)]
pub struct MemBackend {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemBackend {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemBackend {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.files.write().insert(name.to_string(), Vec::new());
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        let mut files = self.files.write();
        let file = files.entry(name.to_string()).or_default();
        let offset = file.len() as u64;
        file.extend_from_slice(data);
        Ok(offset)
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        let files = self.files.read();
        let file = files
            .get(name)
            .ok_or_else(|| PfsError::NotFound(name.to_string()))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= file.len() as u64)
            .ok_or_else(|| PfsError::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                size: file.len() as u64,
            })?;
        Ok(file[offset as usize..end as usize].to_vec())
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.files
            .read()
            .get(name)
            .map(|f| f.len() as u64)
            .ok_or_else(|| PfsError::NotFound(name.to_string()))
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.files
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| PfsError::NotFound(name.to_string()))
    }

    fn exists(&self, name: &str) -> bool {
        self.files.read().contains_key(name)
    }

    fn list(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_read() {
        let be = MemBackend::new();
        assert_eq!(be.append("a", &[1, 2]).unwrap(), 0);
        assert_eq!(be.append("a", &[3]).unwrap(), 2);
        assert_eq!(be.read("a", 0, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(be.len("a").unwrap(), 3);
        assert!(be.exists("a"));
        assert!(!be.exists("b"));
    }

    #[test]
    fn create_truncates() {
        let be = MemBackend::new();
        be.append("a", &[9; 10]).unwrap();
        be.create("a").unwrap();
        assert_eq!(be.len("a").unwrap(), 0);
    }

    #[test]
    fn out_of_bounds_read_fails() {
        let be = MemBackend::new();
        be.append("a", &[0; 4]).unwrap();
        assert!(matches!(
            be.read("a", 2, 3),
            Err(PfsError::OutOfBounds { .. })
        ));
        assert!(matches!(
            be.read("a", u64::MAX, 1),
            Err(PfsError::OutOfBounds { .. })
        ));
        assert!(matches!(be.read("nope", 0, 1), Err(PfsError::NotFound(_))));
    }

    #[test]
    fn remove_deletes_and_errors_on_missing() {
        let be = MemBackend::new();
        be.append("a", &[1, 2, 3]).unwrap();
        be.remove("a").unwrap();
        assert!(!be.exists("a"));
        assert!(matches!(be.remove("a"), Err(PfsError::NotFound(_))));
    }

    #[test]
    fn list_is_sorted() {
        let be = MemBackend::new();
        be.append("y", &[0; 5]).unwrap();
        be.append("x", &[0; 7]).unwrap();
        assert_eq!(be.list(), vec!["x".to_string(), "y".to_string()]);
    }
}
