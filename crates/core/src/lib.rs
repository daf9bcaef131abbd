//! ODC-based circuit fingerprinting — the method of Dunbar & Qu,
//! *"A Practical Circuit Fingerprinting Method Utilizing Observability
//! Don't Care Conditions"*, DAC 2015.
//!
//! The idea: at a **fingerprint location** — a *primary gate* with a
//! non-zero ODC, fed through a fanout-free cone (FFC) — an **ODC trigger
//! signal** (another input of the primary gate) can be wired into a gate of
//! the FFC without changing the circuit function. Each location then
//! encodes fingerprint bits: connection present = 1, absent = 0. Because
//! the change is a single optional connection, it can be solidified
//! post-silicon (fuses / engineering-change orders), so every buyer's copy
//! carries a distinct mark at near-zero redesign cost.
//!
//! # Pipeline
//!
//! 1. [`Fingerprinter::new`] scans a mapped netlist for locations
//!    (Definition 1 of the paper) and enumerates every legal
//!    [`Modification`] at each.
//! 2. [`Fingerprinter::capacity`] reports how many distinct fingerprints
//!    the design supports (Table II columns 6–7).
//! 3. [`Fingerprinter::embed`] produces a fingerprinted copy for a bit
//!    string; every copy is proven functionally equivalent to the base via
//!    random simulation and (optionally) a SAT miter.
//! 4. [`Fingerprinter::extract`] recovers the bit string from a suspect
//!    copy (the designer-side detection of §III-E).
//! 5. [`heuristics`] implements the paper's reactive and proactive
//!    overhead-reduction methods under a delay constraint (Table III).
//! 6. [`collusion`] models the multi-copy comparison attack of §III-E.
//!
//! # Example
//!
//! Fingerprinting the paper's Figure 1 circuit:
//!
//! ```
//! use odcfp_core::Fingerprinter;
//! use odcfp_netlist::{CellLibrary, Netlist};
//! use odcfp_logic::PrimitiveFn;
//!
//! // F = (A & B) & (C | D).
//! let lib = CellLibrary::standard();
//! let mut n = Netlist::new("fig1", lib);
//! let a = n.add_primary_input("A");
//! let b = n.add_primary_input("B");
//! let c = n.add_primary_input("C");
//! let d = n.add_primary_input("D");
//! let and2 = n.library().cell_for(PrimitiveFn::And, 2).unwrap();
//! let or2 = n.library().cell_for(PrimitiveFn::Or, 2).unwrap();
//! let x = n.add_gate("gx", and2, &[a, b]);
//! let y = n.add_gate("gy", or2, &[c, d]);
//! let f = n.add_gate("gf", and2, &[n.gate_output(x), n.gate_output(y)]);
//! n.set_primary_output(n.gate_output(f));
//!
//! let fp = Fingerprinter::new(n)?;
//! assert!(!fp.locations().is_empty());
//! let copy = fp.embed(&vec![true; fp.locations().len()])?;
//! assert_eq!(fp.extract(copy.netlist()), copy.bits());
//! # Ok::<(), odcfp_core::FingerprintError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod campaign;
mod capacity;
pub mod codebook;
pub mod collusion;
mod embed;
mod error;
pub mod faults;
pub mod heuristics;
mod incremental;
mod location;
mod modify;
pub mod robust;
pub mod sdc;
pub mod silicon;
pub mod verify;
pub mod watermark;

pub use capacity::CapacityReport;
pub use codebook::{
    artifact_identity, codebook_file, pack_bits, unpack_bits, CodeSpace, CodebookReader,
    CodebookRecord, CodebookWriter,
};
pub use embed::{FingerprintedCopy, Fingerprinter, SelectionPolicy, VerifyLevel};
pub use error::FingerprintError;
pub use incremental::{EmbedSession, IncrementalLocations};
pub use location::{
    find_locations, find_locations_naive, find_locations_with, Candidate, FingerprintLocation,
};
pub use modify::{apply_modification, Modification, Sources};
pub use odcfp_analysis::cancel::CancelToken;
pub use silicon::FlexibleDesign;
pub use verify::{
    verify_equivalent, verify_equivalent_report, CodeSpaceOutcome, CodeSpaceProof, SatBudget,
    Verdict, VerifyPolicy, VerifyReport, VerifySession, VerifyStats,
};
