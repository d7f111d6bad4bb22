use crate::PageId;

/// Errors reported by the storage layer and everything stacked on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A page id was requested that was never allocated or has been freed.
    PageNotFound(PageId),
    /// A page payload exceeded [`PAGE_SIZE`](crate::PAGE_SIZE) bytes.
    PageOverflow {
        /// The offending page.
        id: PageId,
        /// Payload length in bytes.
        len: usize,
    },
    /// A page could not be decoded by an index layer (corrupt or wrong type).
    Corrupt {
        /// The offending page.
        id: PageId,
        /// Human-readable description of the decode failure.
        reason: String,
    },
    /// The caller handed an index something it cannot hold (an invalid
    /// configuration, or an item with a non-finite coordinate). Nothing
    /// was written.
    InvalidInput {
        /// Human-readable description of what was refused.
        reason: String,
    },
    /// An eviction was required but every buffered page is pinned.
    AllPagesPinned,
    /// A read failed transiently (e.g. a simulated device timeout). The
    /// operation is safe to retry.
    TransientRead(PageId),
    /// A write failed transiently. The operation is safe to retry.
    TransientWrite(PageId),
    /// The device region holding the page has failed permanently; retrying
    /// cannot help.
    DeviceFailed(PageId),
    /// A page arrived whose payload does not match its recorded checksum.
    /// Retryable: a re-read may deliver an undamaged copy.
    ChecksumMismatch {
        /// The offending page.
        id: PageId,
        /// Checksum the page claims (recorded at creation).
        expected: u64,
        /// Checksum actually computed over the delivered payload.
        actual: u64,
    },
    /// A buffer frame holding changes not yet written to the store no
    /// longer matches its checksum. Not retryable: the frame is the only
    /// copy of those changes, so the buffer neither serves it, nor drops it
    /// for a re-read of the stale store copy, nor writes it back. It stays
    /// resident and dirty until the page is rewritten or invalidated (its
    /// logged image, if a WAL is attached, is what recovery replays).
    DirtyFrameCorrupt {
        /// The offending page.
        id: PageId,
        /// Checksum recorded when the frame was last written.
        expected: u64,
        /// Checksum actually computed over the resident payload.
        actual: u64,
    },
    /// A retried operation gave up: the retry policy's attempt budget is
    /// exhausted. `last` is the failure of the final attempt.
    RetriesExhausted {
        /// The page the operation targeted.
        id: PageId,
        /// Number of attempts made (including the first).
        attempts: u32,
        /// The error of the last attempt.
        last: Box<StorageError>,
    },
    /// The simulated process was killed at an injected crash point. Every
    /// subsequent operation on the crashed store (or its write-ahead log)
    /// reports this error; only durable state — the disk image and the log
    /// bytes written so far — survives for recovery.
    Crashed,
    /// An operation required an attached write-ahead log, but the buffer
    /// has none (see `BufferManager::attach_wal` in `asb-core`).
    WalUnavailable,
    /// A flush attempted every dirty frame, but one or more write-backs
    /// failed permanently. The listed pages stay resident and dirty; all
    /// other dirty frames were written back successfully.
    FlushIncomplete {
        /// `(page, error)` for every frame whose write-back failed.
        failures: Vec<(PageId, Box<StorageError>)>,
    },
    /// An operation that needs exclusive access to the backing store (e.g.
    /// `ShardedBuffer::with_store`) was attempted while page guards were
    /// still live. The count is the number of outstanding guards at the
    /// time of the check; drop them and retry.
    GuardsOutstanding(u64),
    /// A replayed allocation handed out another page than the recorded one.
    AllocationMismatch {
        /// The page the recorded run was handed.
        recorded: PageId,
        /// The page the replay was handed.
        replayed: PageId,
    },
}

impl StorageError {
    /// Whether retrying the failed operation may succeed.
    ///
    /// Transient read/write faults clear on their own, and a checksum
    /// mismatch may have damaged only the copy in flight; everything else is
    /// either a logic error or a permanent device failure.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            StorageError::TransientRead(_)
                | StorageError::TransientWrite(_)
                | StorageError::ChecksumMismatch { .. }
        )
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::PageNotFound(id) => write!(f, "page {id} not found"),
            StorageError::PageOverflow { id, len } => {
                write!(f, "page {id} payload of {len} bytes exceeds the page size")
            }
            StorageError::Corrupt { id, reason } => {
                write!(f, "page {id} is corrupt: {reason}")
            }
            StorageError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            StorageError::AllPagesPinned => {
                write!(f, "cannot evict: all buffered pages are pinned")
            }
            StorageError::TransientRead(id) => {
                write!(f, "transient fault reading page {id} (retryable)")
            }
            StorageError::TransientWrite(id) => {
                write!(f, "transient fault writing page {id} (retryable)")
            }
            StorageError::DeviceFailed(id) => {
                write!(f, "device region of page {id} failed permanently")
            }
            StorageError::ChecksumMismatch {
                id,
                expected,
                actual,
            } => write!(
                f,
                "page {id} checksum mismatch: expected {expected:#018x}, got {actual:#018x}"
            ),
            StorageError::DirtyFrameCorrupt {
                id,
                expected,
                actual,
            } => write!(
                f,
                "dirty frame of page {id} is corrupt (expected {expected:#018x}, \
                 got {actual:#018x}): its unwritten changes cannot be served or written back"
            ),
            StorageError::RetriesExhausted { id, attempts, last } => write!(
                f,
                "gave up on page {id} after {attempts} attempt(s); last error: {last}"
            ),
            StorageError::Crashed => {
                write!(
                    f,
                    "simulated process kill: the store is no longer reachable"
                )
            }
            StorageError::WalUnavailable => {
                write!(f, "operation requires an attached write-ahead log")
            }
            StorageError::FlushIncomplete { failures } => {
                write!(f, "flush left {} dirty frame(s) behind:", failures.len())?;
                for (id, err) in failures {
                    write!(f, " [{id}: {err}]")?;
                }
                Ok(())
            }
            StorageError::GuardsOutstanding(live) => write!(
                f,
                "operation needs exclusive store access but {live} page guard(s) are live"
            ),
            StorageError::AllocationMismatch { recorded, replayed } => write!(
                f,
                "replayed allocation got page {replayed}, the recorded run got {recorded}"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// A [`StorageError`] attributed to one specific page of a batched
/// operation.
///
/// The partial-failure batch contract (`BufferPool::fetch_batch` in
/// `asb-core`) returns one `Result<_, PageError>` slot per requested page,
/// so one poisoned page fails *its* slot without aborting its siblings.
/// The id is carried explicitly because the failing page may differ from
/// the page a caller asked for (e.g. a dirty victim whose write-back
/// failed while making room).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageError {
    /// The page whose slot failed.
    pub id: PageId,
    /// Why it failed.
    pub error: StorageError,
}

impl PageError {
    /// Attributes `error` to `id`.
    pub fn new(id: PageId, error: StorageError) -> Self {
        PageError { id, error }
    }

    /// Whether retrying this page's slot may succeed (see
    /// [`StorageError::is_transient`]).
    pub fn is_transient(&self) -> bool {
        self.error.is_transient()
    }

    /// Whether the failure is a typed give-up, a permanent device failure
    /// or a corrupt dirty frame — the signal the serving layer uses to
    /// quarantine a page instead of spending retry budget on it again.
    pub fn is_give_up(&self) -> bool {
        matches!(
            self.error,
            StorageError::RetriesExhausted { .. }
                | StorageError::DeviceFailed(_)
                | StorageError::DirtyFrameCorrupt { .. }
        )
    }
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page {} failed: {}", self.id, self.error)
    }
}

impl std::error::Error for PageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let id = PageId::new(7);
        assert_eq!(
            StorageError::PageNotFound(id).to_string(),
            "page P7 not found"
        );
        assert!(StorageError::PageOverflow { id, len: 4096 }
            .to_string()
            .contains("4096"));
        assert!(StorageError::Corrupt {
            id,
            reason: "bad magic".into()
        }
        .to_string()
        .contains("bad magic"));
        assert_eq!(
            StorageError::InvalidInput {
                reason: "item 3 has a non-finite coordinate".into()
            }
            .to_string(),
            "invalid input: item 3 has a non-finite coordinate"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<StorageError>();
    }

    #[test]
    fn transience_classification() {
        let id = PageId::new(3);
        assert!(StorageError::TransientRead(id).is_transient());
        assert!(StorageError::TransientWrite(id).is_transient());
        assert!(StorageError::ChecksumMismatch {
            id,
            expected: 1,
            actual: 2
        }
        .is_transient());
        assert!(!StorageError::DirtyFrameCorrupt {
            id,
            expected: 1,
            actual: 2
        }
        .is_transient());
        assert!(!StorageError::DeviceFailed(id).is_transient());
        assert!(!StorageError::PageNotFound(id).is_transient());
        assert!(!StorageError::RetriesExhausted {
            id,
            attempts: 3,
            last: Box::new(StorageError::TransientRead(id)),
        }
        .is_transient());
        assert!(!StorageError::Crashed.is_transient());
        assert!(!StorageError::WalUnavailable.is_transient());
        assert!(!StorageError::FlushIncomplete {
            failures: vec![(id, Box::new(StorageError::DeviceFailed(id)))]
        }
        .is_transient());
        assert!(!StorageError::GuardsOutstanding(2).is_transient());
        assert!(!StorageError::InvalidInput { reason: "x".into() }.is_transient());
    }

    #[test]
    fn guards_outstanding_reports_the_live_count() {
        let msg = StorageError::GuardsOutstanding(3).to_string();
        assert!(msg.contains("3 page guard(s)"));
    }

    #[test]
    fn flush_incomplete_names_every_failed_page() {
        let err = StorageError::FlushIncomplete {
            failures: vec![
                (
                    PageId::new(4),
                    Box::new(StorageError::DeviceFailed(PageId::new(4))),
                ),
                (
                    PageId::new(9),
                    Box::new(StorageError::TransientWrite(PageId::new(9))),
                ),
            ],
        };
        let msg = err.to_string();
        assert!(msg.contains("2 dirty frame(s)"));
        assert!(msg.contains("P4"));
        assert!(msg.contains("P9"));
    }

    #[test]
    fn page_error_classifies_give_ups_and_transients() {
        let id = PageId::new(5);
        let transient = PageError::new(id, StorageError::TransientRead(id));
        assert!(transient.is_transient());
        assert!(!transient.is_give_up());
        let gave_up = PageError::new(
            id,
            StorageError::RetriesExhausted {
                id,
                attempts: 4,
                last: Box::new(StorageError::TransientRead(id)),
            },
        );
        assert!(gave_up.is_give_up());
        assert!(!gave_up.is_transient());
        assert!(PageError::new(id, StorageError::DeviceFailed(id)).is_give_up());
        let rot = StorageError::DirtyFrameCorrupt {
            id,
            expected: 1,
            actual: 2,
        };
        assert!(rot.to_string().contains("dirty frame of page P5"));
        assert!(PageError::new(id, rot).is_give_up());
        assert!(gave_up.to_string().contains("page P5 failed"));
    }

    #[test]
    fn give_up_error_carries_the_last_failure() {
        let id = PageId::new(9);
        let err = StorageError::RetriesExhausted {
            id,
            attempts: 4,
            last: Box::new(StorageError::TransientRead(id)),
        };
        let msg = err.to_string();
        assert!(msg.contains("4 attempt"));
        assert!(msg.contains("transient fault reading page P9"));
    }
}
