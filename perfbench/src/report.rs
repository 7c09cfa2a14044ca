//! The metric catalogue and the one-line JSON result every run ends with.

/// End-to-end metrics (`--trace 0`): name and unit, in output order. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("blocks_per_s", "blocks/s"),
    ("slot_ms_p50", "ms"),
    ("pop_success_ratio", "ratio"),
    ("comm_mb_per_node", "Mb"),
    ("storage_mb_per_node", "MB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name and unit, in output order. Every
/// workload reports every one of them; a layer the workload does not run
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.topology_ms", "ms"),
    ("crypto.puzzle_us_per_block", "us"),
    ("crypto.puzzle_attempts_per_block", "count"),
    ("crypto.puzzle_prefix_bytes", "B"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("crypto.sign_us_per_block", "us"),
    ("crypto.merkle_us_per_block", "us"),
    ("crypto.sig_verify_us", "us"),
    ("engine.generate_ms_per_slot", "ms"),
    ("engine.exchange_ms_per_slot", "ms"),
    ("engine.gossip_ms_per_slot", "ms"),
    ("engine.verify_ms_per_slot", "ms"),
    ("engine.commit_ms_per_slot", "ms"),
    ("engine.choose_target_us", "us"),
    ("engine.phase_coverage", "ratio"),
    ("pop.verify_ms_p50", "ms"),
    ("pop.verify_ms_p99", "ms"),
    ("pop.verifies_per_s", "PoP/s"),
    ("pop.messages_per_verify", "count"),
    ("pop.kbits_per_verify", "kb"),
    ("pop.req_child_per_verify", "count"),
    ("pop.tps_extensions_per_verify", "count"),
    ("pop.rollbacks_per_verify", "count"),
    ("pop.timeouts_per_verify", "count"),
    ("pop.offenses_per_verify", "count"),
    ("pop.failed_verify_ms_mean", "ms"),
    ("storage.append_us", "us"),
    ("storage.sync_ms", "ms"),
    ("storage.fsyncs_per_slot", "count"),
    ("storage.get_us", "us"),
    ("storage.iter_meta_us", "us"),
    ("storage.disk_bytes_per_block", "B/block"),
    ("net.bytes_per_block", "B/block"),
    ("net.datagrams_per_block", "count"),
    ("net.request_retries", "count"),
    ("net.replies_unmatched", "count"),
    ("net.recv_wakeups_per_datagram", "ratio"),
    ("net.idle_wakeups", "count"),
    ("net.send_batch_fill", "count"),
    ("net.port_repicks", "count"),
    ("net.generate_ms_per_slot", "ms"),
    ("net.exchange_ms_per_slot", "ms"),
    ("net.verify_ms_per_slot", "ms"),
    ("net.pop_rtt_ms_mean", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.lifecycle_ms_p50", "ms"),
    ("net.lifecycle_ms_p99", "ms"),
    ("run.slot_samples", "count"),
    ("run.verify_samples", "count"),
    ("traced.blocks_per_s", "blocks/s"),
    ("traced.slot_ms_p50", "ms"),
];

/// Metrics and correctness checks collected by one run.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    checks: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records metric `name` (later values of the same name replace
    /// earlier ones).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Records one correctness check; a failed one names itself on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            let what = what();
            eprintln!("perfbench: correctness gate failed: {what}");
            self.failures.push(what);
        }
    }

    /// Whether every check so far passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The final JSON line over the `catalogue` metrics. A metric the run
    /// did not record, or recorded as a non-finite number, fails the run.
    pub fn finish(mut self, catalogue: &[(&str, &str)]) -> (bool, String) {
        let mut body = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = self.get(name).filter(|v| v.is_finite());
            self.check(value.is_some(), || {
                format!("metric {name} was not measured")
            });
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            ));
        }
        let correct = self.correct();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks,
            self.failures.len(),
            body.join(", ")
        );
        (correct, line)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
