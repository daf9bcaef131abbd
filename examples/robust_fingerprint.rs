//! Robust fingerprints (§V): protect the buyer id with an error-correcting
//! code so a tampering adversary can neither destroy the mark nor hide
//! which wires they touched.
//!
//! Run with: `cargo run --release --example robust_fingerprint`

use odcfp_core::robust::{embed_payload, extract_payload, Code, DecodeStatus};
use odcfp_core::Fingerprinter;
use odcfp_netlist::CellLibrary;
use odcfp_synth::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = benchmarks::generate("c499", CellLibrary::standard()).expect("known");
    let fp = Fingerprinter::new(base)?;
    let n = fp.locations().len();
    let code = Code::Hamming;
    let capacity = code.payload_capacity(n);
    println!(
        "{}: {n} locations protect up to {capacity} payload bits under SECDED Hamming(8,4)",
        fp.base().name(),
    );

    // A 32-bit buyer id, truncated to whatever the design can carry.
    let buyer_id: u32 = 0xB1AC_C0DE;
    let payload_len = capacity.min(32);
    let payload: Vec<bool> = (0..payload_len).map(|i| (buyer_id >> i) & 1 == 1).collect();
    let copy = embed_payload(&fp, code, &payload)?;
    println!("embedded {payload_len} id bits of {buyer_id:#010x} across {n} coded bits");

    // The adversary flips one fingerprint wire per coded block — the worst
    // pattern SECDED Hamming(8,4) still corrects.
    let blocks = payload_len / 4;
    let mut tampered_bits = copy.bits().to_vec();
    for block in 0..blocks {
        let at = block * 8 + (block % 8);
        tampered_bits[at] = !tampered_bits[at];
    }
    let tampered = fp.embed(&tampered_bits)?;
    println!("adversary flipped {blocks} wires (one per code block)");

    let recovered = extract_payload(&fp, code, tampered.netlist(), payload_len);
    let recovered_id: u32 = recovered
        .payload
        .iter()
        .enumerate()
        .map(|(i, &b)| (b as u32) << i)
        .sum();
    let expected_id = if payload_len >= 32 {
        buyer_id
    } else {
        buyer_id & ((1u32 << payload_len) - 1)
    };
    println!("recovered buyer id: {recovered_id:#010x}");
    println!(
        "tampered locations identified: {:?}",
        recovered.tampered_locations
    );
    assert_eq!(recovered_id, expected_id, "payload must survive tampering");
    assert_eq!(recovered.tampered_locations.len(), blocks);
    assert_eq!(recovered.status, DecodeStatus::Corrected);
    println!("=> id intact, every tampered wire pinpointed");
    Ok(())
}
