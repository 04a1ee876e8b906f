//! Every synthetic trace pinned byte for byte.
//!
//! Each workload is recorded both ways — built in memory by
//! `build_workload_seeded` and serialized with `write_trace`, and streamed
//! to a file by `write_workload` — and each copy is digested (FNV-1a over
//! the `CCTR` bytes), then compared with a digest recorded before the Zipf
//! sampler became a shared, prebuilt table. Any change that moves one
//! record of one trace — or one byte of its encoding, on either path —
//! fails here and names the workload. The full-scale server
//! and `omnetpp`-like members are `#[ignore]`d, like the graph crate's
//! full-scale golden — run them with
//! `cargo test --release -p ccsim-workloads -- --ignored` (CI does).

use std::io::{self, Write};

use ccsim_ingest::Fnv64;
use ccsim_trace::write_trace;
use ccsim_workloads::{build_workload_seeded, write_workload, Suite, SuiteScale};

/// A `Write` sink that only digests.
struct Digest(Fnv64);

impl Write for Digest {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.update(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The digest of the in-memory trace's `write_trace` bytes.
fn digest(name: &str, scale: SuiteScale, seed: u64) -> u64 {
    let trace = build_workload_seeded(name, scale, seed).unwrap();
    let mut sink = Digest(Fnv64::new());
    write_trace(&trace, &mut sink).unwrap();
    sink.0.finish()
}

/// The digest of the file `write_workload` streams.
fn streamed_digest(name: &str, scale: SuiteScale, seed: u64) -> u64 {
    let path = std::env::temp_dir()
        .join(format!("ccsim-golden-{}-{name}-{scale}-{seed}.cctr", std::process::id()));
    write_workload(name, scale, seed, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let mut fnv = Fnv64::new();
    fnv.update(&bytes);
    fnv.finish()
}

/// Compares each `(name, seed, digest)` on both paths and prints every
/// mismatch as a table row, so a deliberate change re-pins by pasting.
fn assert_pinned(scale: SuiteScale, cases: &[(&str, u64, u64)]) {
    let wrong: Vec<String> = cases
        .iter()
        .flat_map(|&(name, seed, want)| {
            let paths = [
                ("built", digest(name, scale, seed)),
                ("streamed", streamed_digest(name, scale, seed)),
            ];
            paths.into_iter().filter(move |&(_, got)| got != want).map(move |(path, got)| {
                format!("(\"{name}\", {seed}, {got:#018x}), // {path}; pinned {want:#018x}")
            })
        })
        .collect();
    assert!(wrong.is_empty(), "{scale} traces moved:\n{}", wrong.join("\n"));
}

/// Every workload name at quick scale, seeds 0 and 7.
const QUICK: &[(&str, u64, u64)] = &[
    ("bc.friendster", 0, 0x2e0e_8408_a4df_cc08),
    ("bc.friendster", 7, 0x378a_28ea_1d78_8164),
    ("bc.kron", 0, 0xaa4e_f6c0_1c72_79eb),
    ("bc.kron", 7, 0x1083_a74f_493e_bd27),
    ("bc.road", 0, 0x8548_23ea_2095_182b),
    ("bc.road", 7, 0x7ba3_53a9_a336_69ff),
    ("bc.twitter", 0, 0xa0f3_248d_ff7f_62f1),
    ("bc.twitter", 7, 0xc289_2ce4_6d3b_528f),
    ("bc.urand", 0, 0x47f8_ce5d_c70a_661d),
    ("bc.urand", 7, 0xb5fa_f161_c5e3_62fd),
    ("bc.web", 0, 0xafa9_3de5_f5a0_f4ae),
    ("bc.web", 7, 0xcfc6_6810_02c8_47ed),
    ("bfs.friendster", 0, 0xb0c2_d805_319c_aea4),
    ("bfs.friendster", 7, 0x1acb_9444_c1e7_a9a5),
    ("bfs.kron", 0, 0x7283_b218_6ac6_96a7),
    ("bfs.kron", 7, 0xa8c1_6393_1ac1_87d5),
    ("bfs.road", 0, 0x37ca_e531_39d0_8e38),
    ("bfs.road", 7, 0x2617_e9be_d065_9acc),
    ("bfs.twitter", 0, 0xdb76_b690_2888_a0e2),
    ("bfs.twitter", 7, 0xd931_db3e_5d3d_cdf9),
    ("bfs.urand", 0, 0x0779_4ca5_5766_e72d),
    ("bfs.urand", 7, 0x9a5d_3665_390f_876a),
    ("bfs.web", 0, 0xc34d_48cf_232b_ec2a),
    ("bfs.web", 7, 0xda08_25a6_e77f_7273),
    ("cc.friendster", 0, 0x1a16_18e5_aca4_c9b2),
    ("cc.friendster", 7, 0x236f_8335_af14_030b),
    ("cc.kron", 0, 0xbaed_4897_393a_d328),
    ("cc.kron", 7, 0xb072_96f8_b584_9a77),
    ("cc.road", 0, 0x58fb_7a9e_5334_a717),
    ("cc.road", 7, 0x5fca_cc2c_b679_b69f),
    ("cc.twitter", 0, 0x1a5b_3a47_c4c2_7d53),
    ("cc.twitter", 7, 0x5be3_fd47_8858_8c91),
    ("cc.urand", 0, 0x576c_fe99_5d46_2e77),
    ("cc.urand", 7, 0x42a2_803f_c983_61ce),
    ("cc.web", 0, 0x1dd1_4209_7dfb_a644),
    ("cc.web", 7, 0x567d_366d_f5c3_437c),
    ("pr.friendster", 0, 0xf84d_bd3e_0bff_3cc8),
    ("pr.friendster", 7, 0xad85_9f16_e78f_8d69),
    ("pr.kron", 0, 0xc5a6_1189_e935_5110),
    ("pr.kron", 7, 0xa96f_f032_091d_df41),
    ("pr.road", 0, 0x4c5d_5411_feab_0519),
    ("pr.road", 7, 0x8d39_064d_8620_c7f1),
    ("pr.twitter", 0, 0x9136_3df6_f574_5f4d),
    ("pr.twitter", 7, 0xa045_1168_462b_afd2),
    ("pr.urand", 0, 0x5150_f475_aa20_5519),
    ("pr.urand", 7, 0xb778_b3c3_4cd9_f869),
    ("pr.web", 0, 0xc242_8058_a603_f4b2),
    ("pr.web", 7, 0x37be_e91e_0160_e0f2),
    ("qcom.srv0", 0, 0x8519_1498_c649_b19d),
    ("qcom.srv0", 7, 0xfb9a_f594_3cb8_255b),
    ("qcom.srv1", 0, 0x542c_516c_dc6b_28e9),
    ("qcom.srv1", 7, 0x480a_bb92_82b2_aaf4),
    ("qcom.srv2", 0, 0x8317_9ee4_4609_2f3e),
    ("qcom.srv2", 7, 0x8996_7953_57aa_95fe),
    ("qcom.srv3", 0, 0x0e24_5978_d74a_7d9d),
    ("qcom.srv3", 7, 0xb2ce_a435_dd8e_93cb),
    ("qcom.srv4", 0, 0xfc08_2d15_a23c_39a8),
    ("qcom.srv4", 7, 0x5cf4_a7ee_f2cb_384e),
    ("spec.blocked", 0, 0x2081_9343_9d85_ac3f),
    ("spec.blocked", 7, 0x2081_9343_9d85_ac3f),
    ("spec.blocked2", 0, 0x6147_599e_064f_998c),
    ("spec.blocked2", 7, 0x6147_599e_064f_998c),
    ("spec.chase", 0, 0x48fb_6c4c_9194_21d3),
    ("spec.chase", 7, 0x061a_2d88_8f8d_b4f0),
    ("spec.hotcold", 0, 0x1b8a_a4a4_a6e8_c207),
    ("spec.hotcold", 7, 0x408a_65cd_c7f7_0303),
    ("spec.phased", 0, 0x1689_52de_a845_719f),
    ("spec.phased", 7, 0xb810_33ab_f2da_8d8a),
    ("spec.scanreuse", 0, 0x1591_1e8f_00b7_8116),
    ("spec.scanreuse", 7, 0x1591_1e8f_00b7_8116),
    ("spec.stack", 0, 0xb1fa_1270_a641_bd82),
    ("spec.stack", 7, 0xd678_713f_6173_2102),
    ("spec.stream", 0, 0x2fec_8e25_a4a8_1c6a),
    ("spec.stream", 7, 0x2fec_8e25_a4a8_1c6a),
    ("sssp.kron", 0, 0x206c_1720_056a_5360),
    ("sssp.kron", 7, 0xb985_4e9c_c2a3_e3b8),
    ("sssp.road", 0, 0x71f9_f1fa_83d0_90c0),
    ("sssp.road", 7, 0x2df2_d724_5392_1ffb),
    ("sssp.twitter", 0, 0xc1ad_4b2f_24c4_1208),
    ("sssp.twitter", 7, 0x5fc1_762b_caf3_313f),
    ("sssp.urand", 0, 0x7004_481f_175a_0469),
    ("sssp.urand", 7, 0x4914_9c9b_6a09_c8a5),
    ("sssp.web", 0, 0xcd8b_35a6_730d_365f),
    ("sssp.web", 7, 0xb387_fc1f_a451_b287),
    ("tc.friendster", 0, 0x4055_f8f9_229a_24c5),
    ("tc.friendster", 7, 0x5f2b_4b44_7313_c846),
    ("tc.kron", 0, 0x24fc_b1aa_3f24_d0b2),
    ("tc.kron", 7, 0x7e66_2eca_98e8_fa17),
    ("tc.road", 0, 0x5342_8960_9cf1_157f),
    ("tc.road", 7, 0x8e4a_672d_5598_8e44),
    ("tc.twitter", 0, 0x6153_d7e8_5241_8e09),
    ("tc.twitter", 7, 0x7000_598a_c092_da16),
    ("tc.urand", 0, 0xdb60_7853_ba32_79e9),
    ("tc.urand", 7, 0xb2fa_856b_5fd1_246d),
    ("tc.web", 0, 0xd88d_5e84_ce90_6471),
    ("tc.web", 7, 0xf159_fd49_57f8_9be8),
    ("xsbench.large", 0, 0xb4f9_29f6_f958_f33b),
    ("xsbench.large", 7, 0x6e97_d0dd_e728_e0d1),
    ("xsbench.small", 0, 0x25d7_e3f5_278b_ee8f),
    ("xsbench.small", 7, 0x45a1_e1c1_51f8_decb),
    ("xsbench.xl", 0, 0xf18e_2749_8fac_d306),
    ("xsbench.xl", 7, 0xff00_84ab_8e1c_87d2),
];

#[test]
fn every_quick_trace_is_pinned() {
    let mut want: Vec<(String, u64)> = Suite::ALL
        .iter()
        .flat_map(|s| s.member_names())
        .flat_map(|name| [(name.clone(), 0), (name, 7)])
        .collect();
    want.sort();
    let mut pinned: Vec<(String, u64)> =
        QUICK.iter().map(|&(name, seed, _)| (name.to_owned(), seed)).collect();
    pinned.sort();
    assert_eq!(pinned, want, "every workload is pinned at seeds 0 and 7");
    assert_pinned(SuiteScale::Quick, QUICK);
}

/// The five server proxies and the `omnetpp`-like member (the Zipf users)
/// at full scale.
#[test]
#[ignore = "full scale: run with --release -- --ignored"]
fn full_scale_zipf_traces_are_pinned() {
    assert_pinned(
        SuiteScale::Full,
        &[
            ("qcom.srv0", 0, 0x3b11_1509_3961_8bbf),
            ("qcom.srv0", 7, 0x9683_1768_1952_c033),
            ("qcom.srv1", 0, 0xacc2_5f63_f0ca_816e),
            ("qcom.srv1", 7, 0xd36e_9da0_16a3_fa66),
            ("qcom.srv2", 0, 0x57aa_48b2_1d93_965d),
            ("qcom.srv2", 7, 0x0146_8bcb_3391_69c5),
            ("qcom.srv3", 0, 0x8bce_c524_61e8_b411),
            ("qcom.srv3", 7, 0xd17c_9a7b_d7dc_8129),
            ("qcom.srv4", 0, 0x6dd5_84a6_ca95_670e),
            ("qcom.srv4", 7, 0x9fb4_6cd3_218f_affe),
            ("spec.hotcold", 0, 0xf786_0bc1_ec3c_7afc),
            ("spec.hotcold", 7, 0x3c1d_56b5_3892_f575),
        ],
    );
}
