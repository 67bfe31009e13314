//! The names this benchmark is judged by. `BENCHMARK.json` at the root of
//! the repo declares exactly these; a test below keeps the two in step.

use crate::json;

/// One measured value as a run reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples the value summarises (1 for a count or a total).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }

    /// `<name> <value> <unit> n=<samples>`: how a report line carries a
    /// metric after its `metric` or `info` tag.
    pub fn line(&self) -> String {
        format!(
            "{} {} {} n={}",
            self.name, self.value, self.unit, self.samples
        )
    }

    /// Reads back what [`Metric::line`] wrote.
    pub fn parse(line: &str) -> Option<Metric> {
        let mut words = line.split_whitespace();
        Some(Metric {
            name: words.next()?.to_string(),
            value: words.next()?.parse().ok()?,
            unit: words.next()?.to_string(),
            samples: words.next()?.strip_prefix("n=")?.parse().ok()?,
        })
    }
}

/// `{"<name>":{"value":…,"unit":…},…}`, with `"n"` when `with_samples`.
pub fn json_object(metrics: &[Metric], with_samples: bool) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(",\"n\":{}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{samples}}}",
                json::string(&m.name),
                json::number(m.value),
                json::string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system sees; taken from the untraced run only. Every
/// workload reports every one (see the README for what an op and a unit
/// of work are in each workload).
pub const END_TO_END: [Decl; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_ms_best", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Kernels replayed at the workloads' own shapes; each reports `.ms_p50`,
/// a rate (`true` = `.gflops`, `false` = `.gbps`) and `.roofline_pct`.
pub const KERNELS: [(&str, bool); 10] = [
    ("sgemm_ffn", true),
    ("einsum_head", true),
    ("batched_sgemm_qkt", true),
    ("batched_sgemm_gamma", true),
    ("sgemm_gemv", true),
    ("softmax_attn", false),
    ("softmax_vocab", false),
    ("layernorm", false),
    ("bias_act", false),
    ("dropout", false),
];

const FIXED_PER_LAYER: [Decl; 62] = [
    // host: the roofline denominators, measured in the same run
    higher("host.triad_gbps_t1", "GB/s"),
    higher("host.triad_gbps_tn", "GB/s"),
    higher("host.fma_gflops_t1", "Gflop/s"),
    higher("host.fma_gflops_tn", "Gflop/s"),
    // tensor: one block's wide GEMMs and attention core at both forward shapes
    lower("tensor.wide_gemm.bert_fwd.ms_p50", "ms"),
    lower("tensor.wide_gemm.longseq_fwd.ms_p50", "ms"),
    lower("tensor.attn_core.bert_fwd.ms_p50", "ms"),
    lower("tensor.attn_core.longseq_fwd.ms_p50", "ms"),
    // transformer: the model, at bert_fwd
    lower("transformer.model.embed_ms_p50", "ms"),
    lower("transformer.model.blocks_ms_p50", "ms"),
    lower("transformer.model.head_ms_p50", "ms"),
    lower("transformer.model.self_ms_p50", "ms"),
    lower("transformer.model.allocs_per_forward", "count"),
    lower("transformer.model.alloc_mb_per_forward", "MB"),
    // transformer: one block
    lower("transformer.layer.forward_ms_p50", "ms"),
    lower("transformer.layer.forward_into_ms_p50", "ms"),
    lower("transformer.layer.allocs_per_forward_into", "count"),
    lower("transformer.layer.ref_forward_ms_p50", "ms"),
    lower("transformer.layer.epilogue_forward_into_ms_p50", "ms"),
    lower("transformer.layer.longseq_forward_ms_p50", "ms"),
    // transformer: streaming decode, at gpt_generate
    lower("transformer.decode.session_new_ms_p50", "ms"),
    lower("transformer.decode.prefill_ms_p50", "ms"),
    lower("transformer.decode.advance_ms_p50", "ms"),
    lower("transformer.decode.sample_ms_p50", "ms"),
    lower("transformer.decode.ttft_ms_p50", "ms"),
    lower("transformer.decode.itl_ms_p50", "ms"),
    lower("transformer.decode.itl_ms_p90", "ms"),
    lower("transformer.decode.bucket_migrations", "count"),
    lower("transformer.decode.migration_gap_ms_p50", "ms"),
    lower("transformer.decode.allocs_per_step", "count"),
    lower("transformer.decode.resident_mb", "MB"),
    // transformer: one training step, at train_step
    lower("transformer.training.forward_ms_p50", "ms"),
    lower("transformer.training.loss_ms_p50", "ms"),
    lower("transformer.training.backward_ms_p50", "ms"),
    lower("transformer.training.sgd_ms_p50", "ms"),
    lower("transformer.training.allocs_per_step", "count"),
    lower("transformer.training.alloc_mb_per_step", "MB"),
    // transformer: the plan and arena caches
    lower("transformer.interp.cached_plan_cold_ms_p50", "ms"),
    lower("transformer.interp.cached_arena_cold_ms_p50", "ms"),
    lower("transformer.interp.cached_arena_hit_us_p50", "us"),
    // dataflow / gpusim / core: the compile pipeline, stage by stage
    lower("dataflow.build_ms_p50", "ms"),
    lower("core.fusion.apply_ms_p50", "ms"),
    lower("core.sweep.sweep_all_ms_p50", "ms"),
    lower("core.sweep.configs_priced", "count"),
    higher("gpusim.configs_per_s", "1/s"),
    lower("core.selection.select_ms_p50", "ms"),
    lower("core.recipe.optimize_ms_p50", "ms"),
    lower("core.recipe.self_ms_p50", "ms"),
    lower("core.plan.lower_ms_p50", "ms"),
    lower("core.analyze.analyze_ms_p50", "ms"),
    lower("core.analyze.audit_ms_p50", "ms"),
    lower("core.sanitize.certify_ms_p50", "ms"),
    lower("core.access.certify_access_ms_p50", "ms"),
    lower("core.cachemodel.cache_audit_ms_p50", "ms"),
    lower("core.arena.compile_ms_p50", "ms"),
    lower("core.plan.steps", "count"),
    lower("core.plan.relayouts", "count"),
    lower("core.selection.transposes", "count"),
    lower("core.analyze.peak_resident_mb", "MB"),
    lower("core.arena.slab_mb", "MB"),
    higher("core.analyze.static_mue", "%"),
    // the benchmark's own cost
    lower("bench.trace_overhead_pct", "%"),
];

/// Unit of a kernel's rate metric.
pub fn rate_unit(is_flops: bool) -> &'static str {
    if is_flops {
        "Gflop/s"
    } else {
        "GB/s"
    }
}

/// Name of a kernel's rate metric.
pub fn rate_name(kernel: &str, is_flops: bool) -> String {
    format!(
        "tensor.{kernel}.{}",
        if is_flops { "gflops" } else { "gbps" }
    )
}

/// Every per-layer metric, as `(name, unit, better)`: what the traced run
/// reports, whichever workload it was started for.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    for (kernel, is_flops) in KERNELS {
        out.push((format!("tensor.{kernel}.ms_p50"), "ms", Better::Lower));
        out.push((
            rate_name(kernel, is_flops),
            rate_unit(is_flops),
            Better::Higher,
        ));
        out.push((format!("tensor.{kernel}.roofline_pct"), "%", Better::Higher));
    }
    out.extend(
        FIXED_PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit, d.better)),
    );
    out
}

/// Checks that a run reported exactly the declared names with the declared
/// units, each a finite number. Returns one line per disagreement.
pub fn conformance(reported: &[Metric], traced: bool) -> Vec<String> {
    let declared: Vec<(String, &'static str)> = if traced {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit))
            .collect()
    };
    let mut problems = Vec::new();
    for (name, unit) in &declared {
        match reported.iter().filter(|m| &m.name == name).count() {
            0 => problems.push(format!("metric {name} was not reported")),
            1 => {}
            n => problems.push(format!("metric {name} was reported {n} times")),
        }
        for m in reported.iter().filter(|m| &m.name == name) {
            if m.unit != *unit {
                problems.push(format!("metric {name} has unit {} not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                problems.push(format!("metric {name} is not a finite number"));
            }
        }
    }
    for m in reported {
        if !declared.iter().any(|(n, _)| n == &m.name) {
            problems.push(format!("metric {} is not declared", m.name));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(entry: &'a str, key: &str) -> &'a str {
        let at = entry
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key} in {entry}"));
        let rest = entry[at + key.len() + 3..].trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().trim_matches('"')
    }

    /// The entries (`{...}` objects without nesting) of a top-level array.
    fn entries<'a>(manifest: &'a str, key: &str) -> Vec<&'a str> {
        let at = manifest.find(&format!("\"{key}\":")).expect("key present");
        let open = at + manifest[at..].find('[').expect("array opens");
        let close = open + manifest[open..].find(']').expect("array closes");
        manifest[open + 1..close]
            .split('{')
            .skip(1)
            .map(|e| e.split('}').next().unwrap())
            .collect()
    }

    fn better(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let e2e = entries(&manifest, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), d.name);
            assert_eq!(field(entry, "unit"), d.unit);
            assert_eq!(field(entry, "better"), better(d.better));
            assert_eq!(
                field(entry, "bound").parse::<f64>().unwrap(),
                d.bound.unwrap()
            );
        }
        let layers = entries(&manifest, "per_layer");
        let declared = per_layer();
        assert_eq!(layers.len(), declared.len());
        for (entry, (name, unit, b)) in layers.iter().zip(&declared) {
            assert_eq!(field(entry, "name"), name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), better(*b));
        }
        let names: Vec<&str> = entries(&manifest, "workloads")
            .iter()
            .map(|e| field(e, "name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|d| d.name.to_string()));
        assert!(per_layer().len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|d| d.bound.unwrap() <= 0.25));
    }

    #[test]
    fn a_metric_survives_its_report_line() {
        let m = Metric::new("tensor.sgemm_ffn.gflops", 7.062_5, "Gflop/s", 8);
        assert_eq!(Metric::parse(&m.line()), Some(m));
        assert_eq!(Metric::parse("name 1.0 ms"), None);
        let m = [Metric::new("a.b", 1.5, "ms", 3)];
        assert_eq!(
            json_object(&m, false),
            r#"{"a.b":{"value":1.5,"unit":"ms"}}"#
        );
        assert_eq!(
            json_object(&m, true),
            r#"{"a.b":{"value":1.5,"unit":"ms","n":3}}"#
        );
    }

    #[test]
    fn conformance_reports_missing_extra_and_mistyped_metrics() {
        let mut ok: Vec<Metric> = END_TO_END
            .iter()
            .map(|d| Metric::new(d.name, 1.0, d.unit, 1))
            .collect();
        assert!(conformance(&ok, false).is_empty());
        ok[0].value = f64::NAN;
        ok[1].unit = "s".into();
        ok.pop();
        ok.push(Metric::new("surprise", 1.0, "ms", 1));
        let problems = conformance(&ok, false).join("\n");
        assert!(problems.contains("op_ms_best has unit s"), "{problems}");
        assert!(problems.contains("setup_s is not a finite"), "{problems}");
        assert!(
            problems.contains("peak_rss_mb was not reported"),
            "{problems}"
        );
        assert!(problems.contains("surprise is not declared"), "{problems}");
    }
}
