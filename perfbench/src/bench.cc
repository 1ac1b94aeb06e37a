#include "bench.hh"

#include <chrono>
#include <cmath>

#include <sys/resource.h>

#include "workloads/kv_workload.hh"

namespace perfbench
{

using namespace atomsim;

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"run_s", "s"},          {"setup_s", "s"},
        {"events_per_s", "1/s"}, {"host_txn_per_s", "1/s"},
        {"peak_rss_mb", "MB"},   {"pass_frac", "ratio"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"sim.events", "count"},
        {"sim.spill_ratio", "ratio"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.self_s", "s"},
        {"net.messages", "count"},
        {"net.flit_hops", "count"},
        {"net.hops_per_msg", "ratio"},
        {"net.link_stall_cycles", "cycles"},
        {"cpu.ops", "count"},
        {"cpu.sq_full_cycles", "cycles"},
        {"cpu.load_stall_cycles", "cycles"},
        {"cache.l1_miss_rate", "ratio"},
        {"cache.l2_miss_rate", "ratio"},
        {"cache.l2_recalls", "count"},
        {"cache.l1_writebacks", "count"},
        {"mem.demand_reads", "count"},
        {"mem.data_writes", "count"},
        {"mem.log_writes", "count"},
        {"mem.gate_blocks", "count"},
        {"mem.dram_hit_rate", "ratio"},
        {"mem.destage_pages", "count"},
        {"mem.ssd_programs", "count"},
        {"mem.media_retries", "count"},
        {"atom.log_entries", "count"},
        {"atom.source_logged_frac", "ratio"},
        {"atom.dup_entries", "count"},
        {"atom.forced_seals", "count"},
        {"atom.truncations", "count"},
        {"atom.aus_stall_cycles", "cycles"},
        {"atom.recovery_s", "s"},
        {"atom.records_applied", "count"},
        {"atom.lines_restored", "count"},
        {"atom.torn_records", "count"},
        {"designs.commit_flushes", "count"},
        {"designs.redo_log_entries", "count"},
        {"designs.redo_over_atomopt_entries", "ratio"},
        {"os.log_overflow_interrupts", "count"},
        {"workloads.init_s", "s"},
        {"workloads.txn_gen_s", "s"},
        {"workloads.check_s", "s"},
        {"harness.build_s", "s"},
        {"harness.stats_dump_s", "s"},
        {"harness.trace_overhead_s", "s"},
        {"harness.raw_run_s", "s"},
        {"harness.ref_chunk_us", "us"},
        {"harness.sim_cycles", "cycles"},
        {"harness.sim_txn_per_s", "1/s"},
        {"harness.txn_p50_cycles", "cycles"},
        {"harness.txn_p99_cycles", "cycles"},
        {"harness.txn_samples", "count"},
        {"harness.read_p99_cycles", "cycles"},
        {"harness.read_samples", "count"},
        {"harness.update_p99_cycles", "cycles"},
        {"harness.update_samples", "count"},
        {"harness.norm_tput", "ratio"},
        {"harness.paper_err", "ratio"},
    };
    return defs;
}

const std::vector<PaperRef> &
paperRefs()
{
    // The "paper:" lines of bench/fig5_throughput.cc and
    // bench/table4_tpcc.cc, taken from the ATOM paper (HPCA 2017).
    static const std::vector<PaperRef> refs = {
        {"fig5a", DesignKind::Atom, 1.23,
         "Fig. 5(a), gmean of 6 micros, 512 B entries"},
        {"fig5a", DesignKind::AtomOpt, 1.27,
         "Fig. 5(a), gmean of 6 micros, 512 B entries"},
        {"fig5a", DesignKind::NonAtomic, 1.38,
         "Fig. 5(a), gmean of 6 micros, 512 B entries"},
        {"fig5b", DesignKind::Atom, 1.24,
         "Fig. 5(b), gmean of 6 micros, 4 KB entries"},
        {"fig5b", DesignKind::AtomOpt, 1.33,
         "Fig. 5(b), gmean of 6 micros, 4 KB entries"},
        {"fig5b", DesignKind::NonAtomic, 1.41,
         "Fig. 5(b), gmean of 6 micros, 4 KB entries"},
        {"tpcc", DesignKind::Atom, 1.58,
         "Table IV, TPC-C new-order, 32 terminals"},
        {"tpcc", DesignKind::AtomOpt, 1.60,
         "Table IV, TPC-C new-order, 32 terminals"},
        {"tpcc", DesignKind::Redo, 1.47,
         "Table IV, TPC-C new-order, 32 terminals"},
    };
    return refs;
}

std::map<std::pair<std::string, DesignKind>, double>
normalizedGmeans(const std::vector<Job> &jobs,
                 const std::vector<JobResult> &results)
{
    // (figure, bench) -> design -> completions per simulated cycle.
    std::map<std::pair<std::string, std::string>,
             std::map<DesignKind, double>>
        tput;
    for (std::size_t i = 0; i < jobs.size() && i < results.size(); ++i) {
        const Job &j = jobs[i];
        const JobResult &r = results[i];
        if (j.figure.empty() || r.cycles == 0)
            continue;
        tput[{j.figure, j.bench}][j.cfg.design] =
            double(r.completions) / double(r.cycles);
    }
    std::map<std::pair<std::string, DesignKind>, std::vector<double>> norm;
    for (const auto &[key, by_design] : tput) {
        const auto base = by_design.find(DesignKind::Base);
        if (base == by_design.end() || !(base->second > 0))
            continue;
        for (const auto &[d, t] : by_design) {
            if (d != DesignKind::Base)
                norm[{key.first, d}].push_back(t / base->second);
        }
    }
    std::map<std::pair<std::string, DesignKind>, double> out;
    for (const auto &[key, values] : norm)
        out[key] = gmean(values);
    return out;
}

namespace
{

/**
 * One repetition of the workload's jobs. Host times are normalized to
 * the reference speed: raw seconds x kNominalChunkSeconds / the mean
 * reference chunk measured during the pass.
 */
struct Pass
{
    bool traced = false;
    double speed = 1;     //!< normalization factor of this pass
    double rawRunS = 0;   //!< run time before normalization
    double setupS = 0;
    double runS = 0;
    double recoveryS = 0;
    std::uint64_t events = 0;
    std::uint64_t completions = 0;
    std::map<std::string, double> self;  //!< span self times (traced)
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Median over @p passes of @p f(pass). */
template <typename F>
double
medianOf(const std::vector<const Pass *> &passes, F f)
{
    std::vector<double> v;
    for (const Pass *p : passes)
        v.push_back(f(*p));
    return median(v);
}

double
selfOf(const Pass &p, const char *name)
{
    const auto it = p.self.find(name);
    return it == p.self.end() ? 0.0 : it->second;
}

/** The modeled (simulated) per-layer outputs of one pass's jobs. */
void
modeledMetrics(const Options &opt, const std::vector<Job> &jobs,
               const std::vector<JobResult> &results,
               std::map<std::string, double> &m, std::FILE *log)
{
    std::map<std::string, double> c;
    double events = 0, completions = 0, spill = 0, wheel = 0, sim_secs = 0;
    Buckets all, read, update;
    RecoveryReport rec;
    double redo_entries = 0, atomopt_entries = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        events += double(r.events);
        completions += double(r.completions);
        for (const auto &[k, v] : r.counters)
            c[k] += double(v);
        spill += double(r.spillInserts);
        wheel += double(r.wheelInserts);
        m["harness.sim_cycles"] += double(r.cycles);
        sim_secs += double(r.cycles) / jobs[i].cfg.clockHz;
        for (const Buckets &b : r.latency)
            mergeBuckets(all, b);
        mergeBuckets(read, r.latency[KvWorkload::kClassRead]);
        mergeBuckets(update, r.latency[KvWorkload::kClassUpdate]);
        rec.recordsApplied += r.report.recordsApplied;
        rec.linesRestored += r.report.linesRestored;
        rec.tornRecords += r.report.tornRecords;
        const auto it_redo = r.counters.find("redo.log_entries");
        const auto it_logm = r.counters.find("logm.entries");
        if (jobs[i].cfg.design == DesignKind::Redo &&
            it_redo != r.counters.end())
            redo_entries += double(it_redo->second);
        if (jobs[i].cfg.design == DesignKind::AtomOpt &&
            it_logm != r.counters.end())
            atomopt_entries += double(it_logm->second);
    }
    m["sim.events"] = events;
    m["sim.spill_ratio"] = ratio(spill, spill + wheel);
    m["net.messages"] = c["mesh.messages"];
    m["net.flit_hops"] = c["mesh.flit_hops"];
    m["net.hops_per_msg"] = ratio(c["mesh.flit_hops"], c["mesh.messages"]);
    m["net.link_stall_cycles"] = c["mesh.link_stall_cycles"];
    m["cpu.ops"] = c["core.ops"];
    m["cpu.sq_full_cycles"] = c["core.sq_full_cycles"];
    m["cpu.load_stall_cycles"] = c["core.load_stall_cycles"];
    m["cache.l1_miss_rate"] =
        ratio(c["l1c.load_misses"] + c["l1c.store_misses"],
              c["l1c.loads"] + c["l1c.stores"]);
    m["cache.l2_miss_rate"] =
        ratio(c["l2t.misses"], c["l2t.hits"] + c["l2t.misses"]);
    m["cache.l2_recalls"] = c["l2t.recalls"];
    m["cache.l1_writebacks"] = c["l1c.writebacks"];
    m["mem.demand_reads"] = c["mc.demand_reads"];
    m["mem.data_writes"] = c["mc.data_writes"];
    m["mem.log_writes"] = c["mc.log_writes"];
    m["mem.gate_blocks"] = c["mc.gate_blocks"];
    m["mem.dram_hit_rate"] =
        ratio(c["mc.dram_hits"], c["mc.dram_hits"] + c["mc.dram_misses"]);
    m["mem.destage_pages"] = c["mc.destage_pages"];
    m["mem.ssd_programs"] = c["ssd.programs"];
    m["mem.media_retries"] = c["mc.media_retries"];
    m["atom.log_entries"] = c["logm.entries"];
    m["atom.source_logged_frac"] =
        ratio(c["logm.source_logged"], c["logm.entries"]);
    m["atom.dup_entries"] = c["logm.dup_entries"];
    m["atom.forced_seals"] = c["logm.forced_seals"];
    m["atom.truncations"] = c["logm.truncations"];
    m["atom.aus_stall_cycles"] = c["aus.structural_stall_cycles"];
    m["atom.records_applied"] = rec.recordsApplied;
    m["atom.lines_restored"] = rec.linesRestored;
    m["atom.torn_records"] = rec.tornRecords;
    m["designs.commit_flushes"] = c["design.commit_flushes"];
    m["designs.redo_log_entries"] = c["redo.log_entries"];
    m["designs.redo_over_atomopt_entries"] =
        ratio(redo_entries, atomopt_entries);
    m["os.log_overflow_interrupts"] = c["os.log_overflow_interrupts"];
    m["harness.sim_txn_per_s"] = ratio(completions, sim_secs);
    m["harness.txn_p50_cycles"] = double(percentile(all, 0.50));
    m["harness.txn_p99_cycles"] = double(percentile(all, 0.99));
    m["harness.txn_samples"] = double(sampleCount(all));
    // Only the serving workload tags transaction classes; elsewhere
    // every transaction lands in class 0, which is not "read".
    const bool classes = opt.workload == "kv-serving";
    m["harness.read_p99_cycles"] =
        classes ? double(percentile(read, 0.99)) : 0.0;
    m["harness.read_samples"] = classes ? double(sampleCount(read)) : 0.0;
    m["harness.update_p99_cycles"] =
        classes ? double(percentile(update, 0.99)) : 0.0;
    m["harness.update_samples"] =
        classes ? double(sampleCount(update)) : 0.0;

    const auto gmeans = normalizedGmeans(jobs, results);
    std::vector<double> all_norm;
    for (const auto &kv : gmeans)
        all_norm.push_back(kv.second);
    m["harness.norm_tput"] = gmean(all_norm);
    std::vector<PaperPoint> points;
    for (const PaperRef &ref : paperRefs()) {
        const auto it = gmeans.find({ref.figure, ref.design});
        if (it == gmeans.end())
            continue;
        points.push_back({it->second, ref.value});
        std::fprintf(log, "  %-6s %-10s measured %.4f  paper %.2f  "
                          "(%s)\n",
                     ref.figure, designName(ref.design), it->second,
                     ref.value, ref.source);
    }
    m["harness.paper_err"] = paperErr(points);
    if (!points.empty())
        std::fprintf(log, "  paper_err %.4f over %zu reference values\n",
                     m["harness.paper_err"], points.size());
    if (classes) {
        // RunResult::txns counts core*.txn_committed: atomic commits
        // only, so log-free reads never show up there.
        std::fprintf(log, "  completions %.0f (latency histograms) vs "
                          "%.0f atomic commits (RunResult::txns)\n",
                     completions, c["core.txn_committed"]);
    }
}

} // namespace

Outcome
runBenchmark(const Options &opt, std::FILE *log)
{
    Outcome out;
    const std::vector<Job> jobs = makeJobs(opt.workload, opt.seed, opt.scale);
    if (jobs.empty())
        return out;

    Tracer tracer;
    Calibrator cal;
    std::vector<Pass> passes;
    // The first pass's results: the reference every later pass must
    // repeat exactly, and the source of the modeled metrics. Later
    // passes keep only their totals, so memory does not grow with the
    // number of passes.
    std::vector<JobResult> first;
    const auto t0 = std::chrono::steady_clock::now();
    const auto since = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t)
            .count();
    };
    // Repeat whole passes while another one fits in the budget. A traced
    // run alternates untraced and traced passes, so both are measured.
    for (;;) {
        Pass p;
        p.traced = opt.trace && passes.size() % 2 == 1;
        if (p.traced)
            tracer.clear();
        const auto tp = std::chrono::steady_clock::now();
        cal.reset();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            JobResult r = runJob(job, p.traced ? &tracer : nullptr, &cal);
            ++out.attempted;
            std::string why = r.ok ? "" : r.fault;
            if (why.empty() && !passes.empty() &&
                r.fingerprint != first[i].fingerprint) {
                why = p.traced ? "traced run's simulated outputs differ "
                                 "from the untraced run's"
                               : "simulated outputs differ from the "
                                 "first repetition's";
            }
            if (!why.empty()) {
                ++out.failed;
                std::fprintf(log, "FAIL %s: %s\n", job.label.c_str(),
                             why.c_str());
            }
            p.setupS += r.buildS + r.setupS;
            p.runS += r.runS;
            p.recoveryS += r.recoveryS;
            p.events += r.events;
            p.completions += r.completions;
            if (passes.empty())
                first.push_back(std::move(r));
        }
        const double pass_s = since(tp);
        p.speed = Calibrator::kNominalChunkSeconds / cal.meanChunkSeconds();
        p.rawRunS = p.runS;
        p.setupS *= p.speed;
        p.runS *= p.speed;
        p.recoveryS *= p.speed;
        if (p.traced) {
            p.self = selfTimes(tracer.spans());
            for (auto &kv : p.self)
                kv.second *= p.speed;
        }
        std::fprintf(log,
                     "pass %zu%s: %zu jobs, setup %.4f s, run %.4f s "
                     "(raw %.4f s, reference chunk %.1f us), recovery "
                     "%.4f s, %llu events, %llu txns\n",
                     passes.size(), p.traced ? " (traced)" : "",
                     jobs.size(), p.setupS, p.runS, p.rawRunS,
                     cal.meanChunkSeconds() * 1e6, p.recoveryS,
                     (unsigned long long)p.events,
                     (unsigned long long)p.completions);
        std::fflush(log);
        passes.push_back(std::move(p));
        const std::size_t min_passes = opt.trace ? 2 : 1;
        if (passes.size() >= min_passes &&
            since(t0) + pass_s > opt.seconds)
            break;
    }

    std::vector<const Pass *> untraced, traced;
    for (const Pass &p : passes)
        (p.traced ? traced : untraced).push_back(&p);

    std::map<std::string, double> m;
    if (!opt.trace) {
        m["run_s"] = medianOf(untraced, [](const Pass &p) { return p.runS; });
        m["setup_s"] =
            medianOf(untraced, [](const Pass &p) { return p.setupS; });
        m["events_per_s"] = medianOf(untraced, [](const Pass &p) {
            return ratio(double(p.events), p.runS);
        });
        m["host_txn_per_s"] = medianOf(untraced, [](const Pass &p) {
            return ratio(double(p.completions), p.runS);
        });
        m["peak_rss_mb"] = peakRssMb();
        m["pass_frac"] = 1.0 - failFrac(out.failed, out.attempted);
    } else {
        modeledMetrics(opt, jobs, first, m, log);
        const auto self = [&traced](const char *name) {
            return medianOf(traced, [name](const Pass &p) {
                return selfOf(p, name);
            });
        };
        const double traced_run =
            medianOf(traced, [](const Pass &p) { return p.runS; });
        const double untraced_run =
            medianOf(untraced, [](const Pass &p) { return p.runS; });
        m["atom.recovery_s"] = self("atom.recover");
        m["workloads.init_s"] = self("workloads.init");
        m["workloads.txn_gen_s"] = self("workloads.txn_gen");
        m["workloads.check_s"] = self("workloads.check");
        m["harness.build_s"] = self("harness.build");
        m["harness.stats_dump_s"] = self("harness.stats_dump");
        m["harness.trace_overhead_s"] = traced_run - untraced_run;
        m["harness.raw_run_s"] =
            medianOf(untraced, [](const Pass &p) { return p.rawRunS; });
        m["harness.ref_chunk_us"] = medianOf(untraced, [](const Pass &p) {
            return Calibrator::kNominalChunkSeconds / p.speed * 1e6;
        });
        m["sim.self_s"] = self("sim.run") + self("sim.slice");
        m["sim.host_ns_per_event"] =
            ratio((traced_run - m["workloads.txn_gen_s"]) * 1e9,
                  m["sim.events"]);
        std::fprintf(log, "tracing overhead: %.4f s (traced run %.4f s, "
                          "untraced %.4f s)\n",
                     traced_run - untraced_run, traced_run, untraced_run);
        if (!opt.traceOut.empty()) {
            if (tracer.writeChromeJson(opt.traceOut))
                std::fprintf(log, "wrote %zu spans to %s\n",
                             tracer.spans().size(), opt.traceOut.c_str());
            else
                std::fprintf(log, "cannot write %s\n", opt.traceOut.c_str());
        }
    }

    out.correct = out.failed == 0;
    for (const MetricDef &d : opt.trace ? perLayerMetrics()
                                        : endToEndMetrics()) {
        const double v = m[d.name];
        if (!std::isfinite(v)) {
            std::fprintf(log, "FAIL metric %s is not finite\n", d.name);
            out.correct = false;
        }
        out.metrics.emplace_back(d.name, v);
    }
    return out;
}

std::string
resultJson(const Outcome &out, bool trace)
{
    std::string s = "{\"correct\": ";
    s += out.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    const std::vector<MetricDef> &defs =
        trace ? perLayerMetrics() : endToEndMetrics();
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const auto &[name, value] = out.metrics[i];
        const char *unit = "";
        for (const MetricDef &d : defs) {
            if (name == d.name)
                unit = d.unit;
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + num +
             ", \"unit\": \"" + unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace perfbench
