/**
 * @file
 * One repetition of one benchmark workload, in a process of its own.
 *
 *   usage: perfbench_workload --workload <evolve_adder|evolve_l1d|detect>
 *                             --seed <n> [--trace <spans.jsonl>]
 *
 * The seed drives every input: the loop's genomes, the screen programs
 * and the campaigns' fault samples. The workload drives the library only
 * through its public entry points. Set-up (thread pool, inputs, loop
 * construction, gate circuits) ends at the first timed call.
 *
 * Prints one JSON object on stdout: the output checks, the operations
 * attempted and failed, a digest over the deterministic outputs, and the
 * end-to-end figures. With --trace it also times calls into each layer,
 * runs the per-layer probes on one population of the workload's inputs,
 * measures the layers the workload does not exercise with a short run of
 * the other workload kind (a 20-generation IntAdder loop after detect,
 * one detect round after a loop), adds the per-layer figures, and writes
 * its spans to the given path as schema-v1 JSONL (validated with
 * telemetry::validateTrace).
 *
 * Exit status: 0 once the JSON is printed (its "correct" field carries
 * the checks), 2 on a usage error, 3 when the thread pool is larger than
 * the process's CPU affinity mask.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/harpocrates.hh"
#include "coverage/measure.hh"
#include "faultsim/campaign.hh"
#include "gates/fu_library.hh"
#include "isa/encoding.hh"
#include "isa/program.hh"
#include "museqgen/museqgen.hh"
#include "resilience/error.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_reader.hh"
#include "uarch/core.hh"

using namespace harpo;
using coverage::TargetStructure;
using Clock = std::chrono::steady_clock;

namespace
{

// Taken during static initialisation, before main: set-up time and
// trace timestamps count from here.
const Clock::time_point processStart = Clock::now();

// Size of one repetition: a few seconds of work on 4 cores
// (perfbench/README.md, "Sizing").
constexpr unsigned kAdderGenerations = 125;
constexpr unsigned kL1dGenerations = 40;
constexpr unsigned kDetectRounds = 5;
constexpr unsigned kFaultsPerCampaign = 200;
// The loop a traced detect run adds to measure the core and coverage
// layers.
constexpr unsigned kProbeGenerations = 20;

// Each probe repeats its pass over one population until this much
// time has gone by, so that clock reads stay a small part of it.
constexpr double kProbeMinSec = 0.1;

// Separates the probes' genome stream from the loop's own stream.
constexpr std::uint64_t kProbeSeedSalt = 0x9E3779B97F4A7C15ull;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto sec = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + 1e-6 * t.tv_usec;
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

/** %.17g, so every digit measured is printed. */
std::string
fmtDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Schema-v1 spelling of a double: always carries a '.' or exponent. */
std::string
fmtTraceDouble(double v)
{
    std::string s = fmtDouble(v);
    if (s.find_first_of(".en") == std::string::npos)
        s += ".0";
    return s;
}

/** Spans and events of a traced run, kept in memory and written as
 *  schema-v1 JSONL once the workload is over. Only the main thread
 *  records; the library's own global sink is never installed. */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    std::uint64_t
    ns(Clock::time_point t) const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - processStart)
                .count());
    }

    void
    span(std::string name, const char *cat, Clock::time_point begin,
         Clock::time_point end)
    {
        if (on)
            spans.push_back({std::move(name), cat, ns(begin), ns(end)});
    }

    void
    gen(Clock::time_point t, const core::GenerationStats &g,
        unsigned programs)
    {
        if (!on)
            return;
        events.push_back(
            {ns(t), "\"type\":\"gen\",\"ts\":" + std::to_string(ns(t)) +
                        ",\"generation\":" +
                        std::to_string(g.generation) +
                        ",\"best\":" + fmtTraceDouble(g.bestCoverage) +
                        ",\"mean_topk\":" + fmtTraceDouble(g.meanTopK) +
                        ",\"programs\":" + std::to_string(programs)});
    }

    void
    campaign(Clock::time_point t, const char *target,
             const faultsim::CampaignResult &r)
    {
        if (!on)
            return;
        std::string line = "\"type\":\"campaign\",\"ts\":" +
                           std::to_string(ns(t)) + ",\"target\":\"" +
                           target + "\"";
        const std::pair<const char *, std::uint64_t> fields[] = {
            {"injections", r.total()},
            {"masked", r.masked},
            {"sdc", r.sdc},
            {"crash", r.crash},
            {"hang", r.hang},
            {"hw_corrected", r.hwCorrected},
            {"hw_detected", r.hwDetected},
            {"forked", r.forkedInjections},
            {"digest_exits", r.digestEarlyExits},
            {"failed", r.failedInjections},
            {"golden_cycles", r.goldenCycles},
        };
        for (const auto &[name, value] : fields)
            line += ",\"" + std::string(name) +
                    "\":" + std::to_string(value);
        line += r.truncated ? ",\"truncated\":true"
                            : ",\"truncated\":false";
        events.push_back({ns(t), std::move(line)});
    }

    std::size_t spanCount() const { return spans.size(); }

    /** Write every span and event in timestamp order. */
    void
    write(const std::string &path) const
    {
        // (ts, kind, line): at equal timestamps an end precedes the
        // next begin, and events sit between the two.
        struct Line
        {
            std::uint64_t ts;
            int kind;
            std::string text;
        };
        std::vector<Line> lines;
        lines.reserve(2 * spans.size() + events.size());
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const std::string id = std::to_string(i + 1);
            lines.push_back({s.beginNs, 2,
                             "{\"type\":\"span_begin\",\"id\":" + id +
                                 ",\"ts\":" + std::to_string(s.beginNs) +
                                 ",\"tid\":0,\"name\":\"" + s.name +
                                 "\",\"cat\":\"" + s.cat + "\"}"});
            lines.push_back({s.endNs, 0,
                             "{\"type\":\"span_end\",\"id\":" + id +
                                 ",\"ts\":" + std::to_string(s.endNs) +
                                 ",\"tid\":0}"});
        }
        for (const Event &e : events)
            lines.push_back({e.ts, 1, "{" + e.body + "}"});
        std::stable_sort(lines.begin(), lines.end(),
                         [](const Line &a, const Line &b) {
                             return a.ts != b.ts ? a.ts < b.ts
                                                 : a.kind < b.kind;
                         });

        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            throw Error::io("cannot create trace file '" + path + "'");
        std::fprintf(f, "{\"type\":\"header\",\"schema\":1}\n");
        for (const Line &l : lines)
            std::fprintf(f, "%s\n", l.text.c_str());
        const bool ok = std::fflush(f) == 0;
        if (std::fclose(f) != 0 || !ok)
            throw Error::io("cannot write trace file '" + path + "'");
    }

  private:
    struct Span
    {
        std::string name;
        const char *cat;
        std::uint64_t beginNs;
        std::uint64_t endNs;
    };
    struct Event
    {
        std::uint64_t ts;
        std::string body;
    };

    bool on;
    std::vector<Span> spans;
    std::vector<Event> events;
};

/** Run @p call, record it as a span, return its wall seconds. */
template <typename Call>
double
timed(SpanLog &log, const std::string &name, const char *cat, Call &&call)
{
    const Clock::time_point begin = Clock::now();
    call();
    const Clock::time_point end = Clock::now();
    log.span(name, cat, begin, end);
    return secondsBetween(begin, end);
}

struct Figure
{
    double value;
    const char *unit;
};

using Figures = std::map<std::string, Figure>;

/** Every per-layer figure the workload runner reports, with its unit.
 *  The pooled percentiles and the trace overhead are added by run.py. */
Figures
emptyLayerFigures()
{
    Figures f;
    for (const char *name : {"core.generation_s", "core.compilation_s",
                             "core.evaluation_s", "core.mutation_s"})
        f[name] = {0.0, "s"};
    f["core.serial_share"] = {0.0, "fraction"};
    f["core.gens_per_s"] = {0.0, "1/s"};
    f["museqgen.synth_instr_per_s"] = {0.0, "instr/s"};
    f["isa.encode_instr_per_s"] = {0.0, "instr/s"};
    f["isa.hash_programs_per_s"] = {0.0, "programs/s"};
    f["uarch.bare_cycles_per_s"] = {0.0, "cycles/s"};
    f["uarch.session_cycles_per_s"] = {0.0, "cycles/s"};
    f["uarch.sim_cycles"] = {0.0, "cycles"};
    f["coverage.programs_per_s"] = {0.0, "programs/s"};
    for (const char *name :
         {"coverage.eval_cache_hit_rate", "coverage.decode_hit_rate",
          "coverage.arena_reuse_rate", "coverage.lane_fill",
          "coverage.cached_cycle_share"})
        f[name] = {0.0, "fraction"};
    for (const char *name : {"faultsim.golden_s",
                             "faultsim.transient_campaign_s",
                             "faultsim.stuckat_campaign_s"})
        f[name] = {0.0, "s"};
    for (const coverage::StructureInfo &row : coverage::allStructures())
        f[std::string("faultsim.campaign_s.") + row.name] = {0.0, "s"};
    for (const char *name :
         {"faultsim.golden_cache_hit_rate", "faultsim.fork_share",
          "faultsim.digest_exit_share"})
        f[name] = {0.0, "fraction"};
    f["faultsim.transient_faults_per_s"] = {0.0, "faults/s"};
    f["faultsim.stuckat_faults_per_s"] = {0.0, "faults/s"};
    f["gates.setup_s"] = {0.0, "s"};
    f["gates.injected_share"] = {0.0, "fraction"};
    f["gates.pruned_share"] = {0.0, "fraction"};
    f["gates.dominance_skips"] = {0.0, "count"};
    f["common.parallel_eff"] = {0.0, "fraction"};
    return f;
}

void
setLayer(Figures &layers, const std::string &name, double value)
{
    const auto it = layers.find(name);
    if (it == layers.end())
        panic("perfbench: unknown per-layer figure " + name);
    it->second.value = value;
}

/** What one repetition measured and checked. */
struct Rep
{
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Fnv1a digest;
    double setupSec = 0.0;
    double timedSec = 0.0;
    /** End-to-end figures of this repetition (run.py aggregates them). */
    Figures endToEnd;
    /** The workload's own names for its figures, printed for people. */
    Figures summary;
    Figures layers = emptyLayerFigures();
    std::vector<double> genMs;
    std::vector<double> campaignMs;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/** One input of the per-layer probes. */
struct ProbeInput
{
    const museqgen::MuSeqGen *gen;
    museqgen::Genome genome;
    uarch::CoreConfig core;
};

/** Repeat @p pass until kProbeMinSec of calls have been timed; returns
 *  (work units, seconds) summed over the passes. */
template <typename Pass>
std::pair<double, double>
repeatProbe(Pass &&pass)
{
    double work = 0.0;
    double sec = 0.0;
    do {
        const auto [w, s] = pass();
        work += w;
        sec += s;
    } while (sec < kProbeMinSec);
    return {work, sec};
}

/** Time each layer's public entry point serially over @p inputs. */
void
runProbes(const std::vector<ProbeInput> &inputs, SpanLog &log,
          Figures &layers)
{
    const Clock::time_point begin = Clock::now();
    std::vector<isa::TestProgram> programs(inputs.size());

    const auto synth = repeatProbe([&] {
        double instrs = 0.0, sec = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            sec += timed(log, "synthesize", "museqgen", [&] {
                programs[i] = inputs[i].gen->synthesize(inputs[i].genome);
            });
            instrs += static_cast<double>(programs[i].code.size());
        }
        return std::make_pair(instrs, sec);
    });
    setLayer(layers, "museqgen.synth_instr_per_s",
             ratio(synth.first, synth.second));

    const auto encode = repeatProbe([&] {
        double instrs = 0.0, sec = 0.0;
        for (const isa::TestProgram &p : programs) {
            sec += timed(log, "encodeProgram", "isa",
                         [&] { isa::encodeProgram(p.code); });
            instrs += static_cast<double>(p.code.size());
        }
        return std::make_pair(instrs, sec);
    });
    setLayer(layers, "isa.encode_instr_per_s",
             ratio(encode.first, encode.second));

    const auto hash = repeatProbe([&] {
        double sec = 0.0;
        for (const isa::TestProgram &p : programs)
            sec += timed(log, "contentHash", "isa",
                         [&] { isa::contentHash(p); });
        return std::make_pair(static_cast<double>(programs.size()), sec);
    });
    setLayer(layers, "isa.hash_programs_per_s",
             ratio(hash.first, hash.second));

    const auto bare = repeatProbe([&] {
        double cycles = 0.0, sec = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            uarch::Core core(inputs[i].core);
            uarch::SimResult sim;
            sec += timed(log, "Core::run", "uarch",
                         [&] { sim = core.run(programs[i]); });
            cycles += static_cast<double>(sim.cycles);
        }
        return std::make_pair(cycles, sec);
    });
    setLayer(layers, "uarch.bare_cycles_per_s",
             ratio(bare.first, bare.second));

    const auto session = repeatProbe([&] {
        double cycles = 0.0, sec = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            coverage::CoverageVector cov;
            sec += timed(log, "measureAllCoverage", "coverage", [&] {
                cov = coverage::measureAllCoverage(programs[i],
                                                   inputs[i].core);
            });
            cycles += static_cast<double>(cov.sim.cycles);
        }
        return std::make_pair(cycles, sec);
    });
    setLayer(layers, "uarch.session_cycles_per_s",
             ratio(session.first, session.second));

    log.span("probes", "bench", begin, Clock::now());
}

std::uint64_t
counter(const char *name)
{
    auto &reg = telemetry::MetricsRegistry::instance();
    return reg.counterValue(reg.counter(name));
}

/** Copy the per-layer figures whose names start with one of
 *  @p prefixes, and the output checks, from a cross-layer probe. */
void
adoptLayers(Rep &rep, const Rep &probe,
            std::initializer_list<const char *> prefixes)
{
    for (const auto &[name, figure] : probe.layers)
        for (const char *prefix : prefixes)
            if (name.rfind(prefix, 0) == 0)
                setLayer(rep.layers, name, figure.value);
    for (const std::string &e : probe.errors)
        rep.errors.push_back("probe: " + e);
}

/** One evolution loop. @p probes runs the per-layer probes after a
 *  traced loop; a loop that is itself a cross-layer probe skips them. */
Rep
runEvolve(const std::string &workload, TargetStructure target,
          unsigned generations, std::uint64_t seed, SpanLog &log,
          bool probes)
{
    Rep rep;
    // The batch counters are process-wide; a loop that runs as a probe
    // after a detect workload must count only its own programs.
    const char *const batchCounters[] = {
        "batch.programs",    "batch.eval_cache_hits", "batch.decode_hits",
        "batch.decode_misses", "batch.arena_reuses",  "batch.lane_sweeps",
        "batch.lanes_filled", "batch.sim_cycles",     "batch.cached_cycles"};
    std::map<std::string, std::uint64_t> base;
    for (const char *name : batchCounters)
        base[name] = counter(name);
    auto delta = [&](const char *name) {
        return counter(name) - base.at(name);
    };

    core::LoopConfig cfg = core::presetFor(target, 1.0);
    cfg.generations = generations;
    cfg.seed = seed;
    core::Harpocrates loop(cfg);

    Clock::time_point last;
    loop.onGeneration = [&](const core::GenerationStats &g) {
        const Clock::time_point now = Clock::now();
        rep.genMs.push_back(1e3 * secondsBetween(last, now));
        log.span("generation", "core", last, now);
        log.gen(now, g, cfg.population);
        last = now;
    };

    const double cpu0 = cpuSeconds();
    const Clock::time_point begin = Clock::now();
    rep.setupSec = secondsBetween(processStart, begin);
    last = begin;
    const core::LoopResult result = loop.run();
    const Clock::time_point end = Clock::now();
    const double cpuSec = cpuSeconds() - cpu0;
    rep.timedSec = secondsBetween(begin, end);
    log.span(workload, "bench", begin, end);

    // Read before anything else grades a program.
    const double programs = delta("batch.programs");
    const double cacheHits = delta("batch.eval_cache_hits");
    const double decodeHits = delta("batch.decode_hits");
    const double decodeMisses = delta("batch.decode_misses");
    const double arenaReuses = delta("batch.arena_reuses");
    const double laneSweeps = delta("batch.lane_sweeps");
    const double lanesFilled = delta("batch.lanes_filled");
    const std::uint64_t simCycles = delta("batch.sim_cycles");
    const double cachedCycles = delta("batch.cached_cycles");

    const std::uint64_t expected =
        static_cast<std::uint64_t>(generations) * cfg.population;
    rep.attempted = expected;
    rep.failed = expected - std::min(expected, result.programsEvaluated);
    rep.check(!result.truncated, "loop truncated");
    rep.check(result.history.size() == generations,
              "history has " + std::to_string(result.history.size()) +
                  " generations, expected " +
                  std::to_string(generations));
    const double regraded =
        coverage::measureAllCoverage(result.bestProgram, cfg.core)[target];
    rep.check(bitsOf(regraded) == bitsOf(result.bestCoverage),
              "best program regrades to " + fmtDouble(regraded) +
                  ", loop reported " + fmtDouble(result.bestCoverage));

    for (const core::GenerationStats &g : result.history)
        rep.digest.addWord(bitsOf(g.bestCoverage));
    rep.digest.addWord(bitsOf(result.bestCoverage));
    rep.digest.addWord(simCycles);

    const double gens = static_cast<double>(result.history.size());
    rep.endToEnd["ops_per_s"] = {
        ratio(static_cast<double>(result.programsEvaluated),
              rep.timedSec),
        "1/s"};
    rep.endToEnd["quality"] = {result.bestCoverage, "fraction"};
    rep.summary["gens_per_s"] = {ratio(gens, rep.timedSec),
                                 "generations/s"};
    rep.summary["best_fitness"] = {result.bestCoverage, "coverage"};

    if (!log.enabled())
        return rep;

    const core::TimingBreakdown &t = result.timing;
    Figures &l = rep.layers;
    setLayer(l, "core.generation_s", t.generationSec);
    setLayer(l, "core.compilation_s", t.compilationSec);
    setLayer(l, "core.evaluation_s", t.evaluationSec);
    setLayer(l, "core.mutation_s", t.mutationSec);
    setLayer(l, "core.serial_share",
             ratio(t.mutationSec + t.generationSec + t.compilationSec,
                   t.total()));
    setLayer(l, "core.gens_per_s", ratio(gens, rep.timedSec));
    setLayer(l, "uarch.sim_cycles", static_cast<double>(simCycles));
    setLayer(l, "coverage.programs_per_s",
             ratio(programs, t.evaluationSec));
    setLayer(l, "coverage.eval_cache_hit_rate", ratio(cacheHits, programs));
    setLayer(l, "coverage.decode_hit_rate",
             ratio(decodeHits, decodeHits + decodeMisses));
    setLayer(l, "coverage.arena_reuse_rate",
             ratio(arenaReuses, programs - cacheHits));
    setLayer(l, "coverage.lane_fill", ratio(lanesFilled, 64.0 * laneSweeps));
    setLayer(l, "coverage.cached_cycle_share",
             ratio(cachedCycles,
                   static_cast<double>(simCycles) + cachedCycles));
    setLayer(l, "common.parallel_eff",
             ratio(cpuSec, rep.timedSec *
                               static_cast<double>(
                                   ThreadPool::global().numThreads())));
    if (!probes)
        return rep;

    const museqgen::MuSeqGen gen(cfg.gen);
    Rng rng(seed ^ kProbeSeedSalt);
    std::vector<ProbeInput> inputs;
    for (unsigned i = 0; i < cfg.population; ++i)
        inputs.push_back({&gen, gen.randomGenome(rng), cfg.core});
    runProbes(inputs, log, l);
    return rep;
}

/** One screen program of the detect workload. */
struct Screen
{
    const coverage::StructureInfo *row;
    std::size_t rowIndex;
    museqgen::Genome genome;
    isa::TestProgram program;
    std::uint64_t campaignSeed;
};

/** @p rounds rounds of golden grades and campaigns. @p probes as for
 *  runEvolve. */
Rep
runDetect(const std::string &workload, unsigned rounds, std::uint64_t seed,
          SpanLog &log, bool probes)
{
    Rep rep;
    const auto &rows = coverage::allStructures();

    // Build the gate circuits and their collapsed fault sets now, so
    // that lazy set-up never lands inside a timed campaign.
    const Clock::time_point gatesBegin = Clock::now();
    const gates::FuLibrary &library = gates::FuLibrary::instance();
    for (const coverage::StructureInfo &row : rows)
        if (!row.bitArray)
            library.collapsedFor(row.circuit);
    const Clock::time_point gatesEnd = Clock::now();
    log.span("FuLibrary", "gates", gatesBegin, gatesEnd);

    std::vector<core::LoopConfig> presets;
    std::vector<museqgen::MuSeqGen> gens;
    for (const coverage::StructureInfo &row : rows) {
        presets.push_back(core::presetFor(row.target, 1.0));
        gens.emplace_back(presets.back().gen);
    }
    Rng rng(seed);
    std::vector<Screen> screens;
    for (unsigned round = 0; round < rounds; ++round) {
        for (std::size_t r = 0; r < rows.size(); ++r) {
            Screen s{&rows[r], r, gens[r].randomGenome(rng), {}, 0};
            s.program = gens[r].synthesize(
                s.genome, std::string("screen-") + rows[r].name + "-" +
                              std::to_string(round));
            s.campaignSeed = rng.next();
            screens.push_back(std::move(s));
        }
    }

    double goldenSec = 0.0;
    double modelSec[2] = {0.0, 0.0};     // [transient, stuck-at]
    double modelFaults[2] = {0.0, 0.0};
    std::vector<double> rowSec(rows.size(), 0.0);
    std::uint64_t goldenCycles = 0;
    double detected = 0.0, classified = 0.0;
    double forked = 0.0, digestExits = 0.0;
    double injected = 0.0, pruned = 0.0, dominanceSkips = 0.0;

    const faultsim::GoldenCacheStats cache0 =
        faultsim::FaultCampaign::goldenCacheStats();
    const double cpu0 = cpuSeconds();
    const Clock::time_point begin = Clock::now();
    rep.setupSec = secondsBetween(processStart, begin);
    for (const Screen &s : screens) {
        const core::LoopConfig &preset = presets[s.rowIndex];
        coverage::CoverageVector golden;
        goldenSec += timed(log, "golden", "faultsim", [&] {
            golden = faultsim::FaultCampaign::measureAllCoverageCached(
                s.program, preset.core);
        });

        faultsim::CampaignConfig camp =
            faultsim::CampaignConfig::forTarget(s.row->target);
        camp.numInjections = kFaultsPerCampaign;
        camp.seed = s.campaignSeed;
        camp.core = preset.core;
        faultsim::CampaignResult r;
        const double sec = timed(
            log, std::string("campaign.") + s.row->name, "faultsim",
            [&] { r = faultsim::FaultCampaign::run(s.program, camp); });
        log.campaign(Clock::now(), s.row->name, r);

        const std::string what = std::string(s.row->name) + " campaign";
        rep.check(r.goldenOk, what + ": golden run failed");
        rep.check(!r.truncated, what + ": truncated");
        rep.check(r.failedInjections == 0,
                  what + ": " + std::to_string(r.failedInjections) +
                      " failed injections");
        rep.check(r.total() == kFaultsPerCampaign,
                  what + ": " + std::to_string(r.total()) +
                      " faults classified");
        rep.attempted += kFaultsPerCampaign;
        rep.failed += r.failedInjections +
                      (kFaultsPerCampaign -
                       std::min(kFaultsPerCampaign, r.total()));

        for (const double c : golden.coverage)
            rep.digest.addWord(bitsOf(c));
        for (const std::uint64_t v :
             {std::uint64_t{r.masked}, std::uint64_t{r.sdc},
              std::uint64_t{r.crash}, std::uint64_t{r.hang},
              std::uint64_t{r.hwCorrected}, std::uint64_t{r.hwDetected},
              r.goldenCycles})
            rep.digest.addWord(v);

        const int model = s.row->bitArray ? 0 : 1;
        modelSec[model] += sec;
        modelFaults[model] += kFaultsPerCampaign;
        rowSec[s.rowIndex] += sec;
        rep.campaignMs.push_back(1e3 * sec);
        goldenCycles += r.goldenCycles;
        detected += r.sdc + r.crash + r.hang;
        classified += r.total();
        forked += r.forkedInjections;
        digestExits += r.digestEarlyExits;
        if (!s.row->bitArray) {
            injected += r.injectedFaults;
            pruned += r.collapsePruned;
            dominanceSkips += r.dominanceReplaySkips;
        }
    }
    const Clock::time_point end = Clock::now();
    const double cpuSec = cpuSeconds() - cpu0;
    rep.timedSec = secondsBetween(begin, end);
    log.span(workload, "bench", begin, end);
    const faultsim::GoldenCacheStats cache1 =
        faultsim::FaultCampaign::goldenCacheStats();
    rep.digest.addWord(goldenCycles);

    rep.endToEnd["ops_per_s"] = {
        ratio(static_cast<double>(rep.attempted), rep.timedSec), "1/s"};
    rep.endToEnd["quality"] = {ratio(detected, classified), "fraction"};
    rep.summary["faults_per_s"] = {
        ratio(static_cast<double>(rep.attempted), rep.timedSec),
        "faults/s"};
    rep.summary["transient_faults_per_s"] = {
        ratio(modelFaults[0], modelSec[0]), "faults/s"};
    rep.summary["stuckat_faults_per_s"] = {
        ratio(modelFaults[1], modelSec[1]), "faults/s"};

    if (!log.enabled())
        return rep;

    Figures &l = rep.layers;
    setLayer(l, "faultsim.golden_s", goldenSec);
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses =
        static_cast<double>(cache1.misses - cache0.misses);
    setLayer(l, "faultsim.golden_cache_hit_rate",
             ratio(hits, hits + misses));
    setLayer(l, "faultsim.transient_campaign_s", modelSec[0]);
    setLayer(l, "faultsim.stuckat_campaign_s", modelSec[1]);
    for (std::size_t r = 0; r < rows.size(); ++r)
        setLayer(l, std::string("faultsim.campaign_s.") + rows[r].name,
                 rowSec[r]);
    setLayer(l, "faultsim.fork_share", ratio(forked, modelFaults[0]));
    setLayer(l, "faultsim.digest_exit_share", ratio(digestExits, forked));
    setLayer(l, "faultsim.transient_faults_per_s",
             ratio(modelFaults[0], modelSec[0]));
    setLayer(l, "faultsim.stuckat_faults_per_s",
             ratio(modelFaults[1], modelSec[1]));
    setLayer(l, "gates.setup_s", secondsBetween(gatesBegin, gatesEnd));
    setLayer(l, "gates.injected_share", ratio(injected, modelFaults[1]));
    setLayer(l, "gates.pruned_share", ratio(pruned, modelFaults[1]));
    setLayer(l, "gates.dominance_skips", dominanceSkips);
    setLayer(l, "uarch.sim_cycles", static_cast<double>(goldenCycles));
    setLayer(l, "common.parallel_eff",
             ratio(cpuSec, rep.timedSec *
                               static_cast<double>(
                                   ThreadPool::global().numThreads())));
    if (!probes)
        return rep;

    std::vector<ProbeInput> inputs;
    for (std::size_t r = 0; r < rows.size(); ++r)
        inputs.push_back({&gens[r], screens[r].genome, presets[r].core});
    runProbes(inputs, log, l);
    return rep;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
jsonFigures(const Figures &figures)
{
    std::string out = "{";
    for (const auto &[name, f] : figures) {
        if (out.size() > 1)
            out += ",";
        out += jsonString(name) + ":{\"value\":" + fmtDouble(f.value) +
               ",\"unit\":" + jsonString(f.unit) + "}";
    }
    return out + "}";
}

std::string
jsonNumbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? "," : "") + fmtDouble(values[i]);
    return out + "]";
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <evolve_adder|evolve_l1d|detect> "
                 "--seed <n> [--trace <spans.jsonl>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string seedText;
    std::string tracePath;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--workload")
            workload = argv[i + 1];
        else if (flag == "--seed")
            seedText = argv[i + 1];
        else if (flag == "--trace")
            tracePath = argv[i + 1];
        else
            return usage(argv[0]);
    }
    char *seedEnd = nullptr;
    const std::uint64_t seed =
        std::strtoull(seedText.c_str(), &seedEnd, 10);
    if (argc % 2 == 0 || seedText.empty() || *seedEnd != '\0' ||
        (workload != "evolve_adder" && workload != "evolve_l1d" &&
         workload != "detect"))
        return usage(argv[0]);

    // The pool must not have more workers than the CPUs this process
    // may run on, or parallel phases would time oversubscription.
    const std::size_t threads = ThreadPool::global().numThreads();
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
        std::perror("perfbench: sched_getaffinity");
        return 3;
    }
    const std::size_t cpus = static_cast<std::size_t>(CPU_COUNT(&mask));
    if (threads > cpus) {
        std::fprintf(stderr,
                     "perfbench: thread pool has %zu workers but the "
                     "affinity mask allows %zu CPUs; refusing to run\n",
                     threads, cpus);
        return 3;
    }

    SpanLog log(!tracePath.empty());
    Rep rep;
    try {
        const bool traced = log.enabled();
        if (workload == "evolve_adder")
            rep = runEvolve(workload, TargetStructure::IntAdder,
                            kAdderGenerations, seed, log, traced);
        else if (workload == "evolve_l1d")
            rep = runEvolve(workload, TargetStructure::L1DCache,
                            kL1dGenerations, seed, log, traced);
        else
            rep = runDetect(workload, kDetectRounds, seed, log, traced);

        // Layers the workload does not exercise are measured by a short
        // run of the other kind on inputs from the same seed, so that
        // every per-layer figure is a measurement on every workload.
        if (traced && workload == "detect") {
            Rep loop = runEvolve("loop-probe", TargetStructure::IntAdder,
                                 kProbeGenerations, seed ^ kProbeSeedSalt,
                                 log, false);
            adoptLayers(rep, loop, {"core.", "coverage."});
            rep.genMs = std::move(loop.genMs);
        } else if (traced) {
            Rep detect = runDetect("detect-probe", 1, seed ^ kProbeSeedSalt,
                                   log, false);
            adoptLayers(rep, detect, {"faultsim.", "gates."});
            rep.campaignMs = std::move(detect.campaignMs);
        }
    } catch (const std::exception &e) {
        rep.errors.push_back(std::string("workload threw: ") + e.what());
    }
    rep.endToEnd["setup_s"] = {rep.setupSec, "s"};
    rep.endToEnd["peak_rss_mb"] = {peakRssMiB(), "MiB"};

    if (log.enabled()) {
        try {
            log.write(tracePath);
            const telemetry::TraceStats stats =
                telemetry::validateTrace(tracePath);
            rep.check(stats.spansBegun == log.spanCount() &&
                          stats.openSpans() == 0,
                      "trace holds " + std::to_string(stats.spansBegun) +
                          " spans, expected " +
                          std::to_string(log.spanCount()));
        } catch (const Error &e) {
            rep.errors.push_back(std::string("trace: ") + e.what());
        }
    }

    std::string errors = "[";
    for (std::size_t i = 0; i < rep.errors.size(); ++i)
        errors += (i ? "," : "") + jsonString(rep.errors[i]);
    errors += "]";
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                  rep.digest.value());

    std::printf(
        "{\"workload\":%s,\"seed\":%" PRIu64 ",\"threads\":%zu,"
        "\"affinity_cpus\":%zu,\"correct\":%s,\"errors\":%s,"
        "\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64 ",\"digest\":"
        "\"%s\",\"timed_s\":%s,\"end_to_end\":%s,\"summary\":%s,"
        "\"layers\":%s,\"samples\":{\"gen_ms\":%s,\"campaign_ms\":%s}}\n",
        jsonString(workload).c_str(), seed, threads, cpus,
        rep.errors.empty() ? "true" : "false", errors.c_str(),
        rep.attempted, rep.failed, digest, fmtDouble(rep.timedSec).c_str(),
        jsonFigures(rep.endToEnd).c_str(), jsonFigures(rep.summary).c_str(),
        log.enabled() ? jsonFigures(rep.layers).c_str() : "{}",
        jsonNumbers(rep.genMs).c_str(), jsonNumbers(rep.campaignMs).c_str());
    return 0;
}
