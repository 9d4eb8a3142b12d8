//! Runtime scheme selection: [`SchemeKind`] and [`with_scheme!`](crate::with_scheme).
//!
//! The seven schemes are distinct types, so every client is generic over
//! `S: Smr` and monomorphized per scheme. A binary that picks the scheme
//! at runtime (a CLI flag, an env var) matches on the [`SchemeKind`] once
//! and runs the generic code for the chosen type; `with_scheme!` is that
//! match, written once:
//!
//! ```
//! use mp_smr::{with_scheme, Config, SchemeKind, Smr, SmrHandle};
//!
//! fn churn<S: Smr>() -> &'static str {
//!     let smr = S::try_new(Config::default()).unwrap();
//!     let mut h = smr.try_register().unwrap();
//!     let mut op = h.pin();
//!     let node = op.alloc(42u32);
//!     unsafe { op.retire(node) };
//!     S::name()
//! }
//!
//! let kind: SchemeKind = "ebr".parse().unwrap();
//! assert_eq!(with_scheme!(kind, S => churn::<S>()), "EBR");
//! ```
//!
//! Each arm is the same code a static choice compiles to: there is no
//! per-call dispatch on the hot path.

/// Names one of the seven reclamation schemes, for runtime selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Margin pointers (the paper's scheme).
    Mp,
    /// Hazard pointers.
    Hp,
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard eras.
    He,
    /// Interval-based reclamation.
    Ibr,
    /// Drop the Anchor.
    Dta,
    /// No reclamation (baseline).
    Leaky,
}

impl SchemeKind {
    /// Every selectable scheme, in the benchmark harness's canonical order.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::Mp,
        SchemeKind::Hp,
        SchemeKind::Ebr,
        SchemeKind::He,
        SchemeKind::Ibr,
        SchemeKind::Dta,
        SchemeKind::Leaky,
    ];

    /// The scheme's display name, identical to its [`Smr::name`].
    ///
    /// [`Smr::name`]: crate::Smr::name
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Mp => "MP",
            SchemeKind::Hp => "HP",
            SchemeKind::Ebr => "EBR",
            SchemeKind::He => "HE",
            SchemeKind::Ibr => "IBR",
            SchemeKind::Dta => "DTA",
            SchemeKind::Leaky => "Leaky",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SchemeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<SchemeKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "mp" => Ok(SchemeKind::Mp),
            "hp" => Ok(SchemeKind::Hp),
            "ebr" => Ok(SchemeKind::Ebr),
            "he" => Ok(SchemeKind::He),
            "ibr" => Ok(SchemeKind::Ibr),
            "dta" => Ok(SchemeKind::Dta),
            "leaky" => Ok(SchemeKind::Leaky),
            other => Err(format!(
                "unknown scheme {other:?} (expected one of: mp, hp, ebr, he, ibr, dta, leaky)"
            )),
        }
    }
}

/// Evaluates `body` with the type alias `S` bound to the scheme `kind`
/// names: `with_scheme!(kind, S => run::<S, LinkedList<S>>(&p))`.
///
/// `kind` is matched once; each of the seven arms expands `body` with
/// `type S = Mp;` (etc.), so the selected arm is the same monomorphized
/// code as a static choice of scheme. `body` must type-check, and yield
/// the same type, for every scheme.
#[macro_export]
macro_rules! with_scheme {
    ($kind:expr, $S:ident => $body:expr) => {
        match $kind {
            $crate::SchemeKind::Mp => {
                type $S = $crate::schemes::Mp;
                $body
            }
            $crate::SchemeKind::Hp => {
                type $S = $crate::schemes::Hp;
                $body
            }
            $crate::SchemeKind::Ebr => {
                type $S = $crate::schemes::Ebr;
                $body
            }
            $crate::SchemeKind::He => {
                type $S = $crate::schemes::He;
                $body
            }
            $crate::SchemeKind::Ibr => {
                type $S = $crate::schemes::Ibr;
                $body
            }
            $crate::SchemeKind::Dta => {
                type $S = $crate::schemes::Dta;
                $body
            }
            $crate::SchemeKind::Leaky => {
                type $S = $crate::schemes::Leaky;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atomic, Config, Shared, Smr, SmrError, SmrHandle};

    #[test]
    fn kind_parses_all_names_case_insensitively() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.name().parse::<SchemeKind>().unwrap(), kind);
            assert_eq!(kind.name().to_ascii_lowercase().parse::<SchemeKind>().unwrap(), kind);
        }
        assert!("btrfs".parse::<SchemeKind>().is_err());
    }

    /// register → pin → alloc → read → retire → `force_empty` on `S`.
    fn full_protocol<S: Smr>() {
        let smr = S::try_new(Config::default().with_max_threads(2)).unwrap();
        let mut h = smr.try_register().unwrap();
        let mut op = h.pin();
        let node = op.alloc(7u64);
        let cell = Atomic::new(node);
        let r = op.read(&cell, 0);
        // SAFETY: [INV-12] protected by the read above within this op.
        assert_eq!(unsafe { *r.deref().data() }, 7);
        cell.store(Shared::null(), core::sync::atomic::Ordering::Release);
        // SAFETY: [INV-12] unlinked above, retired once.
        unsafe { op.retire(node) };
        drop(op);
        h.force_empty();
    }

    #[test]
    fn with_scheme_selects_the_named_type_and_runs_the_handle_protocol() {
        for kind in SchemeKind::ALL {
            assert_eq!(with_scheme!(kind, S => S::name()), kind.name());
            with_scheme!(kind, S => full_protocol::<S>());
        }
    }

    fn exhaust_then_recycle<S: Smr>() {
        let smr = S::try_new(Config::default().with_max_threads(1)).unwrap();
        let h = smr.try_register().unwrap();
        match smr.try_register() {
            Err(SmrError::RegistryExhausted { max_threads }) => assert_eq!(max_threads, 1),
            Err(e) => panic!("{}: unexpected error: {e}", S::name()),
            Ok(_) => panic!("{}: expected RegistryExhausted", S::name()),
        }
        drop(h);
        assert!(smr.try_register().is_ok(), "{}: slot recycles after handle drop", S::name());
    }

    #[test]
    fn registry_exhaustion_is_recoverable_under_every_scheme() {
        for kind in SchemeKind::ALL {
            with_scheme!(kind, S => exhaust_then_recycle::<S>());
        }
    }
}
