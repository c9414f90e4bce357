/**
 * @file
 * perfbench — the campaign benchmark program (see README.md here).
 *
 * Runs the real `eh_explore campaign` grids through the library's
 * public entry points (explore::Campaign + explore::evaluateJob
 * in-process, svc::runCampaign against an `eh_explored serve` broker)
 * and prints one JSON report as its last stdout line. Three workloads:
 *
 *   fault-grid    --grid fault, in-process, cold durable store
 *   clank-grid    --grid clank, in-process, cold durable store
 *   fault-remote  --grid fault through a fresh broker + nproc workers
 *
 * With --trace 0 it measures the end-to-end metrics over repeated cold
 * runs of the grid; with --trace 1 it rebuilds every cell from public
 * pieces inside spans (workload assembly, golden run, decode, simulator
 * construction and run, ...) and reports per-layer figures. Either way
 * it checks its outputs: row hashes across transports and worker
 * counts, the rebuilt cells against explore::evaluateJob, and the
 * model-vs-simulator accuracy of the validation grid.
 *
 *   perfbench --workload fault-grid --seed 1 --seconds 10 --trace 0
 *             --explored PATH --out-dir DIR [--cells 5] [--smoke 1]
 *   perfbench --digests fault|clank --seed-from A --seed-to B [--cells N]
 *             [--smoke 1]
 */

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/decoded.hh"
#include "energy/capacitor.hh"
#include "energy/supply.hh"
#include "energy/trace.hh"
#include "energy/transducer.hh"
#include "explore/cache.hh"
#include "explore/campaign.hh"
#include "explore/job.hh"
#include "explore/tasks.hh"
#include "fault/injector.hh"
#include "runtime/clank.hh"
#include "runtime/dino.hh"
#include "runtime/nvp.hh"
#include "sim/simulator.hh"
#include "svc/client.hh"
#include "util/csv.hh"
#include "util/hash.hh"
#include "util/log.hh"
#include "util/stats.hh"
#include "workloads/workload.hh"

namespace fs = std::filesystem;
using namespace eh;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Geomean validation error EXPERIMENTS.md quotes for the 24-cell grid. */
constexpr double quotedGeomeanErrorPct = 1.87;

// ---------------------------------------------------------------- options

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    int cells = 5;
    std::string explored;
    std::string outDir;
    std::string digests; ///< digest-table mode: "fault" or "clank"
    std::uint64_t seedFrom = 0;
    std::uint64_t seedTo = 0;
    unsigned jobs = 1;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("flag " + flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = std::stoull(v);
        else if (flag == "--seconds")
            o.seconds = std::stod(v);
        else if (flag == "--trace")
            o.trace = v != "0";
        else if (flag == "--smoke")
            o.smoke = v != "0";
        else if (flag == "--cells")
            o.cells = std::stoi(v);
        else if (flag == "--explored")
            o.explored = v;
        else if (flag == "--out-dir")
            o.outDir = v;
        else if (flag == "--digests")
            o.digests = v;
        else if (flag == "--seed-from")
            o.seedFrom = std::stoull(v);
        else if (flag == "--seed-to")
            o.seedTo = std::stoull(v);
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    // jobs = nproc: the CPUs this process may run on.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        o.jobs = std::max(1, CPU_COUNT(&set));
    return o;
}

// ------------------------------------------------------------------ grids

/** `eh_explore campaign --grid fault --cells N` (tools/eh_explore.cc). */
std::vector<explore::JobSpec>
faultGrid(int cells)
{
    std::vector<explore::JobSpec> out;
    for (const char *w : {"crc", "sha"})
        for (const char *p : {"dino", "clank", "nvp"})
            for (double rate : {0.0, 1.0e-8, 1.0e-7, 1.0e-6, 1.0e-5})
                for (int cell = 0; cell < cells; ++cell)
                    out.push_back(explore::JobSpec("fault")
                                      .set("workload", std::string(w))
                                      .set("policy", std::string(p))
                                      .set("rate", rate)
                                      .set("cell", cell));
    return out;
}

/**
 * `eh_explore campaign --grid clank`: every MiBench kernel × 3 RF
 * traces. The smoke grid keeps the first three kernels.
 */
std::vector<explore::JobSpec>
clankGrid(bool smoke)
{
    std::vector<explore::JobSpec> out;
    auto names = workloads::mibenchNames();
    if (smoke)
        names.resize(std::min<std::size_t>(names.size(), 3));
    for (const auto &w : names)
        for (int trace = 0; trace < 3; ++trace)
            out.push_back(explore::JobSpec("clank")
                              .set("workload", w)
                              .set("trace", trace));
    return out;
}

/** `eh_explore campaign --grid validation` (the Fig 6 grid). */
std::vector<explore::JobSpec>
validationGrid()
{
    std::vector<explore::JobSpec> out;
    for (const auto &w : workloads::tableIINames())
        for (const char *p : {"hibernus", "hibernus++", "mementos", "dino"})
            out.push_back(explore::JobSpec("validation")
                              .set("workload", w)
                              .set("policy", std::string(p)));
    return out;
}

// ---------------------------------------------------------- process stats

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Peak resident set (VmHWM) of @p pid in MiB; 0 when unreadable. */
double
peakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Restart the VmHWM count of @p pid (Linux clear_refs "5"). */
void
resetPeakRss(pid_t pid)
{
    std::ofstream("/proc/" + std::to_string(pid) + "/clear_refs") << "5";
}

/** user+sys seconds of @p pid, all threads, from /proc/<pid>/stat. */
double
procCpuSeconds(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string stat;
    std::getline(in, stat);
    const auto close = stat.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    // Fields after "(comm)": state is field 3; utime, stime are 14, 15.
    std::istringstream rest(stat.substr(close + 2));
    std::string field;
    double ticks = 0.0;
    for (int f = 3; f <= 15 && rest >> field; ++f) {
        if (f >= 14)
            ticks += std::strtod(field.c_str(), nullptr);
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Direct children of @p parent, from /proc/<pid>/stat. */
std::vector<pid_t>
childrenOf(pid_t parent)
{
    std::vector<pid_t> out;
    for (const auto &entry : fs::directory_iterator("/proc")) {
        const std::string name = entry.path().filename().string();
        if (name.empty() || !std::isdigit(static_cast<unsigned char>(name[0])))
            continue;
        std::ifstream in(entry.path() / "stat");
        std::string stat;
        std::getline(in, stat);
        const auto close = stat.rfind(')');
        if (close == std::string::npos)
            continue;
        std::istringstream rest(stat.substr(close + 2));
        char state;
        long ppid = 0;
        rest >> state >> ppid;
        if (ppid == parent)
            out.push_back(static_cast<pid_t>(std::stol(name)));
    }
    return out;
}

// ------------------------------------------------------------ row outputs

/**
 * Hash of a campaign's rows in submission order: canonical spec, every
 * result field, containment status. Error text is left out (it names
 * hosts and attempts); a failed row still differs by its status.
 */
std::uint64_t
rowsHash(const std::vector<explore::JobSpec> &specs,
         const std::vector<explore::JobResult> &results)
{
    std::uint64_t h = fnv1aBasis;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        h = fnv1a(specs[i].canonical(), h);
        h = fnv1aByte(h, 0x1f);
        for (const auto &[key, value] : results[i].fields()) {
            h = fnv1a(key, h);
            h = fnv1aByte(h, '=');
            h = fnv1a(value, h);
            h = fnv1aByte(h, 0x1f);
        }
        h = fnv1a(explore::jobStatusName(results[i].status()), h);
        h = fnv1aByte(h, 0x1e);
    }
    return h;
}

/** The CSV `eh_explore campaign --csv` writes for these rows. */
void
emitCsv(const std::string &path, const std::vector<explore::JobSpec> &specs,
        const std::vector<explore::JobResult> &results)
{
    std::vector<std::string> cols{"job"};
    for (const auto &r : results) {
        if (r.ok()) {
            for (const auto &[key, value] : r.fields())
                cols.push_back(key);
            break;
        }
    }
    cols.push_back("status");
    cols.push_back("error");
    CsvWriter csv(path, cols);
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::vector<std::string> row{specs[i].canonical()};
        for (std::size_t c = 1; c + 2 < cols.size(); ++c)
            row.push_back(results[i].str(cols[c]));
        row.push_back(explore::jobStatusName(results[i].status()));
        row.push_back(results[i].error());
        csv.row(row);
    }
}

std::size_t
countNotOk(const std::vector<explore::JobResult> &results)
{
    return static_cast<std::size_t>(
        std::count_if(results.begin(), results.end(),
                      [](const explore::JobResult &r) { return !r.ok(); }));
}

// ------------------------------------------------------------------ spans

/** One timed region of the traced run. */
struct Span
{
    const char *name;
    double start;         ///< seconds since the tracer's epoch
    double end;
    std::uint64_t id;
    std::uint64_t parent; ///< 0 = root
    long cell;            ///< grid index, -1 outside any cell
};

/**
 * In-memory span recorder. A cell collects its spans privately and
 * hands them over once, so workers contend on the lock once per cell.
 */
class Tracer
{
  public:
    double now() const { return secondsSince(epoch); }

    std::uint64_t newId() { return nextId.fetch_add(1) + 1; }

    void add(std::vector<Span> &batch)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.insert(spans.end(), batch.begin(), batch.end());
        batch.clear();
    }

    void add(Span s)
    {
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back(s);
    }

    const std::vector<Span> &all() const { return spans; }

    /** The campaign span new cell spans hang under (0 = none). */
    std::atomic<std::uint64_t> campaign{0};

    void write(const std::string &path) const
    {
        std::ofstream out(path);
        out.precision(15);
        out << "[\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
                << ",\"end\":" << s.end << ",\"id\":" << s.id
                << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
                << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        out << "]\n";
    }

  private:
    Clock::time_point epoch = Clock::now();
    std::atomic<std::uint64_t> nextId{0};
    std::mutex mu;
    std::vector<Span> spans;
};

/** Spans of one cell under construction; null tracer = untraced. */
class CellSpans
{
  public:
    CellSpans(Tracer *tracer, long cell) : tr(tracer), cellIndex(cell)
    {
        if (tr) {
            rootId = tr->newId();
            rootStart = tr->now();
        }
    }

    /** Time @p fn as a child span @p name of the cell. */
    template <typename Fn>
    auto time(const char *name, Fn &&fn)
    {
        if (!tr)
            return fn();
        const double t0 = tr->now();
        struct Close
        {
            CellSpans &self;
            const char *name;
            double t0;
            ~Close()
            {
                self.local.push_back({name, t0, self.tr->now(),
                                      self.tr->newId(), self.rootId,
                                      self.cellIndex});
            }
        } close{*this, name, t0};
        return fn();
    }

    void finish()
    {
        if (!tr)
            return;
        local.push_back({"explore.cell", rootStart, tr->now(), rootId,
                         tr->campaign.load(), cellIndex});
        tr->add(local);
    }

  private:
    Tracer *tr;
    long cellIndex;
    std::uint64_t rootId = 0;
    double rootStart = 0.0;
    std::vector<Span> local;
};

// ----------------------------------------------------- the cell recipes

/** Simulated counts of one cell; exact, so any drift is a bug. */
struct SimCounts
{
    std::uint64_t cycles = 0;
    std::uint64_t periods = 0;
    std::uint64_t backups = 0;
    std::uint64_t restores = 0;
    std::uint64_t powerFailures = 0;
    std::uint64_t bitFlips = 0;
    std::uint64_t violations = 0;
    std::uint64_t watchdogs = 0;

    bool operator==(const SimCounts &) const = default;

    SimCounts &operator+=(const SimCounts &o)
    {
        cycles += o.cycles;
        periods += o.periods;
        backups += o.backups;
        restores += o.restores;
        powerFailures += o.powerFailures;
        bitFlips += o.bitFlips;
        violations += o.violations;
        watchdogs += o.watchdogs;
        return *this;
    }
};

SimCounts
countsOf(const sim::SimStats &stats, const runtime::BackupPolicy &policy)
{
    SimCounts c;
    c.cycles = stats.meter.totalCycles();
    c.periods = stats.periods;
    c.backups = stats.backups;
    c.restores = stats.restores;
    c.powerFailures = stats.powerFailures;
    c.bitFlips = stats.injectedBitFlips;
    if (const auto *clank = dynamic_cast<const runtime::Clank *>(&policy)) {
        c.violations = clank->tracker().stats().violations;
        c.watchdogs = clank->tracker().stats().watchdogFirings;
    }
    return c;
}

/**
 * A fault cell rebuilt from public pieces. This mirrors
 * explore::runFaultPoint (src/explore/tasks.cc: makeFaultCell,
 * makeFaultPlan, makeFaultPolicy, packFaultRun, packFault) step for
 * step; the recipe guard proves the result bit-identical to
 * evaluateJob's for every cell, so a drift fails the run.
 */
explore::JobResult
faultRecipe(const explore::JobSpec &spec, Rng &rng, CellSpans &sp,
            SimCounts &counts)
{
    const std::string workload = spec.get("workload");
    const std::string policy = spec.get("policy");
    const double rate = spec.getDouble("rate", 0.0);
    const bool vol = policy == "dino";

    const auto w = sp.time("workloads.assemble", [&] {
        return workloads::makeWorkload(
            workload, vol ? workloads::volatileLayout()
                          : workloads::nonvolatileLayout());
    });
    sim::SimConfig cfg;
    cfg.sramUsedBytes = vol ? w.sramUsedBytes : 64;
    cfg.maxActivePeriods = 60000;
    const auto golden = sp.time("sim.golden", [&] {
        return sim::runGolden(w.program, cfg, w.resultAddrs);
    });
    const double budget = std::max(vol ? 2.0e6 : 1.0e6, golden.energy / 5.0);

    const std::uint64_t planSeed = rng.next();
    auto injector = sp.time("fault.plan", [&] {
        fault::FaultPlan plan;
        plan.seed = planSeed;
        plan.wearBitErrorRate = rate;
        plan.checkpointCorruptionProb = std::min(0.9, rate * 1.0e5);
        plan.selectorCorruptionProb = std::min(0.5, rate * 3.0e4);
        plan.maxBitFlips = 1ull << 40;
        return std::make_unique<fault::FaultInjector>(plan);
    });
    auto pol = sp.time("runtime.policy",
                       [&]() -> std::unique_ptr<runtime::BackupPolicy> {
        if (policy == "nvp")
            return std::make_unique<runtime::Nvp>(runtime::NvpConfig{4, 4});
        if (policy == "clank")
            return std::make_unique<runtime::Clank>(runtime::ClankConfig{});
        if (policy == "dino") {
            runtime::DinoConfig c;
            c.sramUsedBytes = cfg.sramUsedBytes;
            return std::make_unique<runtime::Dino>(c);
        }
        throw std::runtime_error("fault recipe: unknown policy " + policy);
    });
    auto supply = sp.time("energy.supply", [&] {
        return std::make_unique<energy::ConstantSupply>(budget);
    });
    auto decoded = sp.time("arch.decode", [&] {
        return std::make_shared<const arch::DecodedProgram>(w.program,
                                                            cfg.costs);
    });
    auto simulator = sp.time("sim.construct", [&] {
        return std::make_unique<sim::Simulator>(w.program, *pol, *supply,
                                                cfg, decoded);
    });
    simulator->attachFaultInjector(injector.get());
    const auto stats = sp.time("sim.run", [&] { return simulator->run(); });

    return sp.time("explore.pack", [&] {
        counts = countsOf(stats, *pol);
        bool correct = false;
        if (stats.finished) {
            correct = true;
            for (std::size_t i = 0; i < w.resultAddrs.size(); ++i)
                correct &= simulator->resultWord(w.resultAddrs[i]) ==
                           w.expected[i];
        }
        return explore::JobResult()
            .set("finished", stats.finished)
            .set("correct", correct)
            .set("progress", stats.measuredProgress())
            .set("corruptions", stats.corruptionsDetected)
            .set("fallbacks", stats.slotFallbacks)
            .set("restarts", stats.restartsFromScratch)
            .set("bit_flips", stats.injectedBitFlips)
            .set("outcome", std::string(sim::outcomeName(stats.outcome)));
    });
}

/** A clank cell rebuilt from public pieces (mirrors explore::runClank). */
explore::JobResult
clankRecipe(const explore::JobSpec &spec, CellSpans &sp, SimCounts &counts)
{
    const std::string workload = spec.get("workload");
    const int traceIndex = static_cast<int>(spec.getDouble("trace", 0.0));
    const auto watchdog =
        static_cast<std::uint64_t>(spec.getDouble("watchdog", 8000.0));

    const auto w = sp.time("workloads.assemble", [&] {
        return workloads::makeWorkload(workload,
                                       workloads::nonvolatileLayout());
    });
    sim::SimConfig cfg;
    cfg.sramUsedBytes = 64;
    cfg.costs = arch::CostModel::cortexM0();
    cfg.maxActivePeriods = 30000;

    auto supply = sp.time("energy.supply", [&] {
        auto traces = energy::makePaperTraces(0xE40 + traceIndex, 30'000'000);
        energy::Transducer tx(0.6, 3000.0, 16.0e6);
        energy::Capacitor cap(0.68e-6, 3.6, 3.0, 2.2);
        return std::make_unique<energy::HarvestingSupply>(
            std::move(traces[static_cast<std::size_t>(traceIndex)]), tx,
            cap);
    });
    auto pol = sp.time("runtime.policy", [&] {
        runtime::ClankConfig cc;
        cc.watchdogCycles = watchdog;
        return std::make_unique<runtime::Clank>(cc);
    });
    auto decoded = sp.time("arch.decode", [&] {
        return std::make_shared<const arch::DecodedProgram>(w.program,
                                                            cfg.costs);
    });
    auto simulator = sp.time("sim.construct", [&] {
        return std::make_unique<sim::Simulator>(w.program, *pol, *supply,
                                                cfg, decoded);
    });
    const auto stats = sp.time("sim.run", [&] { return simulator->run(); });

    return sp.time("explore.pack", [&] {
        counts = countsOf(stats, *pol);
        const auto &ts = pol->tracker().stats();
        return explore::JobResult()
            .set("workload", workload)
            .set("trace", explore::traceNames()[static_cast<std::size_t>(
                              traceIndex)])
            .set("tau_b_mean", stats.tauB.count() ? stats.tauB.mean() : 0.0)
            .set("tau_b_sem", stats.tauB.sem())
            .set("tau_d_mean", stats.tauD.count() ? stats.tauD.mean() : 0.0)
            .set("tau_d_sem", stats.tauD.sem())
            .set("alpha_b_mean",
                 stats.alphaB.count() ? stats.alphaB.mean() : 0.0)
            .set("backups", stats.backups)
            .set("violations", ts.violations)
            .set("watchdogs", ts.watchdogFirings)
            .set("overflows", ts.overflows)
            .set("finished", stats.finished)
            .set("outcome", std::string(sim::outcomeName(stats.outcome)));
    });
}

/** Evaluator running the recipes; null tracer = untraced. */
struct RecipeEvaluator
{
    const std::unordered_map<std::string, long> *index;
    Tracer *tracer;
    std::vector<SimCounts> *counts; ///< per grid index

    explore::JobResult operator()(const explore::JobSpec &spec, Rng &rng) const
    {
        const long cell = index->at(spec.canonical());
        CellSpans sp(tracer, cell);
        SimCounts c;
        explore::JobResult r = spec.kind() == "fault"
                                   ? faultRecipe(spec, rng, sp, c)
                                   : clankRecipe(spec, sp, c);
        (*counts)[static_cast<std::size_t>(cell)] = c;
        sp.finish();
        return r;
    }
};

// ------------------------------------------------------------- the broker

/** Return the numeric value of "key" in a flat stats JSON object. */
double
jsonNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto at = json.find(needle);
    if (at == std::string::npos)
        return std::nan("");
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/**
 * An `eh_explored serve` broker with @p workers forked workers over a
 * Unix socket. It stays in this process's group, so whoever runs the
 * benchmark can stop everything it started by that group.
 */
class BrokerProcess
{
  public:
    BrokerProcess(const std::string &explored, const std::string &dir,
                  unsigned workers)
        : socket(dir + "/b.sock")
    {
        fs::create_directories(dir + "/store");
        const std::string log = dir + "/broker.log";
        const std::string store = dir + "/store";
        const std::string nworkers = std::to_string(workers);
        std::vector<const char *> argv{explored.c_str(), "serve",
                                       "--socket",       socket.c_str(),
                                       "--cache-dir",    store.c_str(),
                                       "--workers",      nworkers.c_str(),
                                       "--quiet",        "1",
                                       nullptr};
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc =
            posix_spawn(&pid, explored.c_str(), &fa, nullptr,
                        const_cast<char *const *>(argv.data()), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot spawn " + explored);
    }

    BrokerProcess(const BrokerProcess &) = delete;
    BrokerProcess &operator=(const BrokerProcess &) = delete;

    ~BrokerProcess() { stop(); }

    /**
     * Wait until the broker answers a ping (returns that time, the
     * spawn), then until @p workers workers have shaken hands.
     */
    double waitReady(unsigned workers, Clock::time_point t0)
    {
        double answered = -1.0;
        for (;;) {
            if (secondsSince(t0) > 20.0)
                throw std::runtime_error("broker not ready within 20 s");
            int status = 0;
            if (waitpid(pid, &status, WNOHANG) == pid) {
                pid = -1;
                throw std::runtime_error("broker exited during start-up");
            }
            if (fs::exists(socket)) {
                try {
                    const std::string stats = svc::pingBroker(socket, 1000);
                    if (answered < 0.0)
                        answered = secondsSince(t0);
                    if (jsonNumber(stats, "workers") >= workers)
                        return answered;
                } catch (const std::exception &) {
                    // still binding its socket
                }
            }
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    }

    std::string stats() const { return svc::pingBroker(socket, 5000); }

    /** The broker and its worker processes. */
    std::vector<pid_t> tree() const
    {
        std::vector<pid_t> pids = childrenOf(pid);
        pids.push_back(pid);
        return pids;
    }

    /** Summed user+sys seconds of the broker and its workers. */
    double treeCpuSeconds() const
    {
        double s = 0.0;
        for (pid_t p : tree())
            s += procCpuSeconds(p);
        return s;
    }

    /** Summed peak RSS of the broker and its workers. */
    double treePeakRssMb() const
    {
        double mb = 0.0;
        for (pid_t p : tree())
            mb += peakRssMb(p);
        return mb;
    }

    void resetTreePeakRss() const
    {
        for (pid_t p : tree())
            resetPeakRss(p);
    }

    /**
     * Stop the broker and wait until it and each of its workers has
     * ended: drained when @p graceful (it reaps its workers), else
     * killed outright (a set-up sample that never ran a cell).
     */
    void stop(bool graceful = true)
    {
        if (pid <= 0)
            return;
        std::vector<pid_t> pending = tree();
        if (graceful) {
            try {
                svc::drainBroker(socket, 20000);
            } catch (const std::exception &) {
                ::kill(pid, SIGTERM);
            }
        } else {
            for (pid_t p : pending)
                ::kill(p, SIGKILL);
        }
        // This process is a child subreaper: workers orphaned by the
        // broker's exit become its children and are reaped here.
        const auto t0 = Clock::now();
        bool forced = !graceful;
        while (!pending.empty()) {
            for (auto it = pending.begin(); it != pending.end();) {
                int status = 0;
                const pid_t r = waitpid(*it, &status, WNOHANG);
                const bool gone = r == *it || (r < 0 && errno == ECHILD &&
                                               ::kill(*it, 0) != 0);
                it = gone ? pending.erase(it) : it + 1;
            }
            if (!forced && secondsSince(t0) > 10.0) {
                for (pid_t p : pending)
                    ::kill(p, SIGKILL);
                forced = true;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid = -1;
    }

    const std::string socket;

  private:
    pid_t pid = -1;
};

// ------------------------------------------------------------- one run

/** One cold run of a grid and what it measured. */
struct Rep
{
    double setupS = 0.0;   ///< start → first cell dispatchable
    double cellsS = 0.0;   ///< first dispatch → CSV written
    double csvS = 0.0;     ///< CSV emission
    double cpuS = 0.0;     ///< user+sys of every process involved
    double peakRssMb = 0.0;
    std::size_t cells = 0;
    std::size_t notOk = 0;
    std::uint64_t seed = 0; ///< campaign seed
    std::uint64_t hash = 0;
    explore::CampaignReport report;
    std::vector<explore::JobResult> results;
};

/** A broker's set-up: start → workers shaken hands. */
struct BrokerSetup
{
    double setupS = 0.0; ///< grid build, spawn, handshake
    double spawnS = 0.0; ///< spawn → broker answers a ping
};

struct Bench
{
    Options opt;
    std::function<std::vector<explore::JobSpec>()> makeGrid;
    std::vector<explore::JobSpec> grid; ///< makeGrid(), for checks
    std::string gridName;
    unsigned repCounter = 0;
    std::string brokerDir;
    std::unique_ptr<BrokerProcess> broker; ///< remote runs go here

    std::string repDir()
    {
        const std::string d = opt.outDir + "/r" + std::to_string(repCounter++);
        fs::remove_all(d);
        fs::create_directories(d);
        return d;
    }

    explore::CampaignConfig config(const std::string &dir, unsigned jobs,
                                   std::uint64_t seed) const
    {
        explore::CampaignConfig cc;
        cc.name = gridName;
        cc.jobs = jobs;
        cc.seed = seed;
        cc.cacheDir = dir + "/store";
        cc.progress = false;
        return cc;
    }

    /** Cold in-process run on a fresh durable store (the CLI's path). */
    Rep inProcess(const explore::Evaluator &eval, unsigned jobs,
                  std::uint64_t seed, Tracer *tracer = nullptr)
    {
        const std::string dir = repDir();
        Rep rep;
        rep.seed = seed;
        resetPeakRss(getpid());
        const double cpu0 = cpuSeconds(RUSAGE_SELF);
        const auto t0 = Clock::now();
        std::atomic<bool> first{false};
        std::atomic<std::int64_t> firstNs{0};
        explore::Campaign campaign(config(dir, jobs, seed));
        for (auto &spec : makeGrid())
            campaign.add(std::move(spec));
        auto wrapped = [&](const explore::JobSpec &spec, Rng &rng) {
            if (!first.exchange(true))
                firstNs.store(std::chrono::duration_cast<
                              std::chrono::nanoseconds>(Clock::now() - t0)
                              .count());
            return eval(spec, rng);
        };
        const double tr0 = tracer ? tracer->now() : 0.0;
        if (tracer)
            tracer->campaign = tracer->newId();
        rep.results = campaign.run(wrapped);
        if (tracer)
            tracer->add({"explore.campaign", tr0, tracer->now(),
                         tracer->campaign.exchange(0), 0, -1});
        rep.csvS = emitTimed(dir, rep.results, tracer);
        const double total = secondsSince(t0);
        rep.setupS = firstNs.load() * 1e-9;
        rep.cellsS = total - rep.setupS;
        rep.cpuS = cpuSeconds(RUSAGE_SELF) - cpu0;
        rep.report = campaign.report();
        rep.peakRssMb = peakRssMb(getpid());
        finish(rep);
        fs::remove_all(dir);
        return rep;
    }

    /**
     * Spawn an `eh_explored serve` broker with nproc workers and wait
     * for their handshakes. With @p keep it stays up for remote() runs;
     * otherwise it is stopped again (a set-up sample only).
     */
    BrokerSetup startBroker(bool keep)
    {
        const std::string dir = repDir();
        const auto t0 = Clock::now();
        // Set-up counts the grid build, as the in-process runs do; the
        // timed runs build their own grid again when they submit.
        const auto specs = makeGrid();
        (void)specs;
        auto b = std::make_unique<BrokerProcess>(opt.explored, dir, opt.jobs);
        BrokerSetup s;
        s.spawnS = b->waitReady(opt.jobs, t0);
        s.setupS = secondsSince(t0);
        if (keep) {
            broker = std::move(b);
            brokerDir = dir;
        } else {
            b->stop(false);
            fs::remove_all(dir);
        }
        return s;
    }

    void stopBroker()
    {
        if (!broker)
            return;
        broker->stop();
        broker.reset();
        fs::remove_all(brokerDir);
    }

    /**
     * Cold run through the broker: every run submits under a store
     * name of its own, so the broker opens a fresh store each time.
     */
    Rep remote(std::uint64_t seed, Tracer *tracer = nullptr)
    {
        Rep rep;
        rep.seed = seed;
        explore::CampaignConfig cc = config(brokerDir, opt.jobs, seed);
        cc.name = gridName + "-" + std::to_string(repCounter++);
        cc.remoteSocket = broker->socket;
        const auto specs = makeGrid(); // set-up, sampled in startBroker()
        resetPeakRss(getpid());
        broker->resetTreePeakRss();
        const double cpu0 = cpuSeconds(RUSAGE_SELF) + broker->treeCpuSeconds();
        const auto t0 = Clock::now();
        const double tr0 = tracer ? tracer->now() : 0.0;
        svc::RemoteRun run = svc::runCampaign(cc, specs);
        if (tracer)
            tracer->add({"svc.run_campaign", tr0, tracer->now(),
                         tracer->newId(), 0, -1});
        rep.results = std::move(run.results);
        rep.report = std::move(run.report);
        // CSV emission is traced on the in-process runs only.
        rep.csvS = emitTimed(brokerDir, rep.results, nullptr);
        rep.cellsS = secondsSince(t0);
        rep.cpuS = cpuSeconds(RUSAGE_SELF) + broker->treeCpuSeconds() - cpu0;
        rep.peakRssMb = peakRssMb(getpid()) + broker->treePeakRssMb();
        finish(rep);
        return rep;
    }

    double emitTimed(const std::string &dir,
                     const std::vector<explore::JobResult> &results,
                     Tracer *tracer)
    {
        const auto t0 = Clock::now();
        const double tr0 = tracer ? tracer->now() : 0.0;
        emitCsv(dir + "/" + gridName + ".csv", grid, results);
        if (tracer)
            tracer->add({"cli.csv", tr0, tracer->now(), tracer->newId(), 0,
                         -1});
        return secondsSince(t0);
    }

    void finish(Rep &rep) const
    {
        rep.cells = rep.results.size();
        rep.notOk = countNotOk(rep.results);
        rep.hash = rowsHash(grid, rep.results);
    }
};

// ------------------------------------------------------------ reporting

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Tail of @p samples: the highest of p99.9/p99/p95/p90/p75/p50 with at
 * least ten samples beyond it (p50 when there are too few samples).
 */
std::pair<double, double>
tail(const std::vector<double> &samples)
{
    const double n = static_cast<double>(samples.size());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (n * (1.0 - pct / 100.0) >= 10.0)
            return {quantile(samples, pct / 100.0), pct};
    }
    return {quantile(samples, 0.5), 50.0};
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream o;
    o.precision(12);
    o << v;
    return o.str();
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** The report's metrics, checks and hashes, rendered as one JSON line. */
struct Report
{
    struct Metric
    {
        std::string name, unit;
        double value, q1, q3;
        std::size_t n;
    };
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::pair<bool, std::string>>> checks;
    std::map<std::string, std::string> hashes;
    /** (campaign seed, rows hash) of every timed run, for run.py. */
    std::vector<std::pair<std::uint64_t, std::string>> repHashes;
    std::size_t attempted = 0, failed = 0;
    double geomeanErrorPct = 0.0;

    void add(const std::string &name, const std::string &unit, double v)
    {
        metrics.push_back({name, unit, v, v, v, 1});
    }

    void addDist(const std::string &name, const std::string &unit,
                 const std::vector<double> &v)
    {
        metrics.push_back({name, unit, median(v), quantile(v, 0.25),
                           quantile(v, 0.75), v.size()});
    }

    void check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back({name, {ok, detail}});
    }

    std::string json(const Options &opt) const
    {
        std::ostringstream o;
        o << "{\"workload\":" << quote(opt.workload)
          << ",\"seed\":" << opt.seed << ",\"trace\":" << (opt.trace ? 1 : 0)
          << ",\"jobs\":" << opt.jobs
          << ",\"smoke\":" << (opt.smoke ? "true" : "false")
          << ",\"attempted\":" << attempted << ",\"failed\":" << failed
          << ",\"geomean_error_pct\":" << num(geomeanErrorPct)
          << ",\"hashes\":{";
        bool firstItem = true;
        for (const auto &[k, v] : hashes) {
            o << (firstItem ? "" : ",") << quote(k) << ":" << quote(v);
            firstItem = false;
        }
        o << "},\"rep_hashes\":[";
        firstItem = true;
        for (const auto &[seed, hash] : repHashes) {
            o << (firstItem ? "" : ",") << "[" << seed << "," << quote(hash)
              << "]";
            firstItem = false;
        }
        o << "],\"checks\":{";
        firstItem = true;
        for (const auto &[name, res] : checks) {
            o << (firstItem ? "" : ",") << quote(name) << ":{\"ok\":"
              << (res.first ? "true" : "false")
              << ",\"detail\":" << quote(res.second) << "}";
            firstItem = false;
        }
        o << "},\"metrics\":{";
        firstItem = true;
        for (const auto &m : metrics) {
            o << (firstItem ? "" : ",") << quote(m.name)
              << ":{\"value\":" << num(m.value) << ",\"unit\":"
              << quote(m.unit) << ",\"q1\":" << num(m.q1)
              << ",\"q3\":" << num(m.q3) << ",\"n\":" << m.n << "}";
            firstItem = false;
        }
        o << "}}";
        return o.str();
    }
};

// ------------------------------------------------------------- checks

/** Run the 24-cell validation grid once, untimed; return geomean %. */
double
validationGeomeanPct(unsigned jobs)
{
    explore::CampaignConfig cc;
    cc.name = "validation";
    cc.jobs = jobs;
    cc.cache = false;
    cc.progress = false;
    explore::Campaign campaign(cc);
    for (const auto &spec : validationGrid())
        campaign.add(spec);
    const auto results = campaign.run(explore::evaluateJob);
    std::vector<double> errors;
    for (const auto &r : results)
        errors.push_back(r.ok() ? r.num("rel_error") : 1.0);
    return 100.0 * geomean(errors);
}

std::string
describeMismatch(const std::vector<explore::JobSpec> &grid,
                 const std::vector<explore::JobResult> &a,
                 const std::vector<explore::JobResult> &b)
{
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (a[i].fields() != b[i].fields() || a[i].status() != b[i].status())
            return "first mismatch at " + grid[i].canonical();
    }
    return "identical";
}

// ------------------------------------------------------------ workloads

bool
isRemote(const Options &opt)
{
    return opt.workload == "fault-remote";
}

/** Broker set-ups sampled per remote run, for a steady setup_s. */
constexpr std::size_t brokerSetupSamples = 20;

/** Untimed warm-up before the timed runs, at least one cold run. */
constexpr double warmUpSeconds = 1.0;

/**
 * Campaign seeds the timed runs cycle through; digests.json holds the
 * rows of each (run.py --write-digests).
 */
constexpr std::uint64_t campaignSeeds = 256;

/** Campaign seed of timed run @p i: --seed, --seed + 1, ... mod 256. */
std::uint64_t
repSeed(const Options &opt, std::size_t i)
{
    return (opt.seed + i) % campaignSeeds;
}

/**
 * Timed cold runs until --seconds elapse (at least three, after an
 * untimed warm-up), then the end-to-end metrics as medians over runs.
 * Each timed run draws the next campaign seed, so the fault grid's
 * seed-dependent work (where faults land, which cells give up) averages
 * out over a run instead of setting it.
 */
void
endToEnd(Bench &b, Report &rep)
{
    const bool remote = isRemote(b.opt);
    std::vector<double> setup;
    if (remote) {
        // Set-up is spawn + handshake here, sampled on brokers of its
        // own; the last one stays up and serves every timed run.
        for (std::size_t i = 1; i < brokerSetupSamples; ++i)
            setup.push_back(b.startBroker(false).setupS);
        setup.push_back(b.startBroker(true).setupS);
    }
    auto one = [&](std::uint64_t seed) {
        return remote ? b.remote(seed)
                      : b.inProcess(explore::evaluateJob, b.opt.jobs, seed);
    };
    const auto tw = Clock::now();
    std::vector<Rep> warm;
    do
        warm.push_back(one(repSeed(b.opt, 0)));
    while (!b.opt.smoke && secondsSince(tw) < warmUpSeconds);
    std::vector<Rep> reps;
    const auto t0 = Clock::now();
    const std::size_t minReps = b.opt.smoke ? 2 : 3;
    while (reps.size() < minReps || secondsSince(t0) < b.opt.seconds)
        reps.push_back(one(repSeed(b.opt, reps.size())));

    std::vector<double> cps, cpu, rss;
    // Runs of one seed must give one set of rows.
    std::map<std::uint64_t, std::uint64_t> bySeed;
    bool sameHash = true;
    for (const Rep &r : warm)
        sameHash &= r.hash == reps.front().hash;
    for (const Rep &r : reps) {
        sameHash &= bySeed.emplace(r.seed, r.hash).first->second == r.hash;
        rep.repHashes.push_back({r.seed, hashHex(r.hash)});
        cps.push_back(static_cast<double>(r.cells) / r.cellsS);
        cpu.push_back(r.cpuS / static_cast<double>(r.cells) * 1000.0);
        if (!remote)
            setup.push_back(r.setupS);
        rss.push_back(r.peakRssMb);
        rep.attempted += r.cells;
        rep.failed += r.notOk;
    }
    rep.addDist("cells_per_s", "1/s", cps);
    rep.addDist("cpu_s_per_kcell", "s", cpu);
    rep.addDist("setup_s", "s", setup);
    rep.addDist("peak_rss_mb", "MiB", rss);
    rep.add("failed_frac", "1",
            static_cast<double>(rep.failed) /
                static_cast<double>(rep.attempted));
    rep.check("rows_identical_per_seed", sameHash,
              std::to_string(warm.size() + reps.size()) + " cold runs, " +
                  std::to_string(bySeed.size()) + " seeds");
    rep.hashes[remote ? "remote" : "jobs_n"] = hashHex(reps.front().hash);

    // Output check: the same rows at jobs=1, jobs=nproc and remote, on
    // the first timed run's seed.
    if (b.gridName == "fault") {
        const std::uint64_t seed = reps.front().seed;
        const Rep one1 = b.inProcess(explore::evaluateJob, 1, seed);
        rep.hashes["jobs_1"] = hashHex(one1.hash);
        if (!remote)
            b.startBroker(true);
        const Rep other =
            remote ? b.inProcess(explore::evaluateJob, b.opt.jobs, seed)
                   : b.remote(seed);
        rep.hashes[remote ? "jobs_n" : "remote"] = hashHex(other.hash);
        const bool agree =
            one1.hash == reps.front().hash && other.hash == reps.front().hash;
        rep.check("rows_identical_jobs1_jobsn_remote", agree,
                  agree ? "identical"
                        : describeMismatch(b.grid, reps.front().results,
                                           one1.hash != reps.front().hash
                                               ? one1.results
                                               : other.results));
    }
    b.stopBroker();
}

/** Per-layer attribution from outside: the traced run. */
void
traced(Bench &b, Report &rep)
{
    const bool remote = isRemote(b.opt);
    std::unordered_map<std::string, long> index;
    for (std::size_t i = 0; i < b.grid.size(); ++i)
        index[b.grid[i].canonical()] = static_cast<long>(i);

    Tracer tracer;
    std::vector<SimCounts> tracedCounts(b.grid.size());
    std::vector<SimCounts> plainCounts(b.grid.size());
    const RecipeEvaluator tracedEval{&index, &tracer, &tracedCounts};
    const RecipeEvaluator plainEval{&index, nullptr, &plainCounts};

    // Untraced recipe: the counts the traced run must reproduce, and a
    // first recipe-guard comparison.
    const Rep plain = b.inProcess(plainEval, b.opt.jobs, b.opt.seed);

    std::vector<double> spawnMs;
    if (remote) {
        for (std::size_t i = 1; i < brokerSetupSamples; ++i)
            spawnMs.push_back(b.startBroker(false).spawnS * 1000.0);
        spawnMs.push_back(b.startBroker(true).spawnS * 1000.0);
    }
    std::vector<Rep> base, withSpans, remotes;
    const auto t0 = Clock::now();
    const std::size_t minPairs = b.opt.smoke ? 1 : 2;
    while (base.size() < minPairs || secondsSince(t0) < b.opt.seconds) {
        base.push_back(
            b.inProcess(explore::evaluateJob, b.opt.jobs, b.opt.seed));
        withSpans.push_back(
            b.inProcess(tracedEval, b.opt.jobs, b.opt.seed, &tracer));
        if (remote)
            remotes.push_back(b.remote(b.opt.seed, &tracer));
    }
    for (const auto &r : base) {
        rep.attempted += r.cells;
        rep.failed += r.notOk;
    }

    // Recipe guard: every rebuilt cell bit-identical to evaluateJob's.
    bool guard = plain.hash == base.front().hash;
    for (const Rep &r : withSpans)
        guard &= r.hash == base.front().hash;
    rep.check("recipe_guard", guard,
              guard ? "every rebuilt cell bit-identical to evaluateJob"
                    : describeMismatch(b.grid, base.front().results,
                                       plain.hash != base.front().hash
                                           ? plain.results
                                           : withSpans.front().results));
    const bool sameCounts = tracedCounts == plainCounts;
    rep.check("sim_counts_traced_equal_untraced", sameCounts,
              sameCounts ? "identical" : "simulated counts differ");
    rep.hashes["jobs_n"] = hashHex(base.front().hash);
    if (remote) {
        bool agree = true;
        for (const Rep &r : remotes)
            agree &= r.hash == base.front().hash;
        rep.hashes["remote"] = hashHex(remotes.front().hash);
        rep.check("rows_identical_jobsn_remote", agree,
                  agree ? "identical"
                        : describeMismatch(b.grid, base.front().results,
                                           remotes.front().results));
    }

    // ---- span statistics
    const double cells = static_cast<double>(b.grid.size());
    const double tracedCells = cells * static_cast<double>(withSpans.size());
    std::map<std::string, std::vector<double>> durMs;
    std::map<std::uint64_t, double> childSum; // parent id → Σ child s
    for (const Span &s : tracer.all())
        if (s.parent)
            childSum[s.parent] += s.end - s.start;
    std::map<std::string, double> selfS;     // layer → Σ self seconds
    std::vector<double> cellMs;
    double cellTotal = 0.0, unattributed = 0.0;
    std::map<std::string, double> preludeByClass, cellByClass;
    auto layerOf = [](const std::string &name) {
        return name.substr(0, name.find('.'));
    };
    auto rateClass = [&](long cell) -> std::string {
        const auto &spec = b.grid[static_cast<std::size_t>(cell)];
        if (spec.kind() != "fault")
            return "";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", spec.getDouble("rate", 0.0));
        return buf;
    };
    for (const Span &s : tracer.all()) {
        const double d = s.end - s.start;
        durMs[s.name].push_back(d * 1000.0);
        if (std::string(s.name) == "explore.cell") {
            cellMs.push_back(d * 1000.0);
            cellTotal += d;
            unattributed += d - childSum[s.id];
            cellByClass[rateClass(s.cell)] += d;
            continue;
        }
        const std::string name = s.name;
        if (s.cell >= 0 && (name == "workloads.assemble" ||
                            name == "sim.golden" || name == "arch.decode"))
            preludeByClass[rateClass(s.cell)] += d;
        // svc.run_campaign wraps remote execution; its self time is the
        // remote-minus-in-process overhead, reported below instead.
        if (name != "svc.run_campaign" && name != "explore.campaign")
            selfS[layerOf(name)] += d - childSum[s.id];
    }
    auto perCall = [&](const char *name) {
        return durMs.count(name) ? median(durMs[name]) : 0.0;
    };
    auto callsPerCell = [&](const char *name) {
        return durMs.count(name)
                   ? static_cast<double>(durMs[name].size()) / tracedCells
                   : 0.0;
    };
    rep.add("workloads.assemble_ms", "ms", perCall("workloads.assemble"));
    rep.add("workloads.assemble_calls_per_cell", "count",
            callsPerCell("workloads.assemble"));
    rep.add("sim.golden_ms", "ms", perCall("sim.golden"));
    rep.add("sim.golden_calls_per_cell", "count", callsPerCell("sim.golden"));
    rep.add("arch.decode_ms", "ms", perCall("arch.decode"));
    rep.add("arch.decode_calls_per_cell", "count",
            callsPerCell("arch.decode"));
    double preludeTotal = 0.0;
    for (const auto &[cls, s] : preludeByClass)
        preludeTotal += s;
    rep.add("explore.prelude_share", "1", preludeTotal / cellTotal);
    for (const char *cls : {"0", "1e-08", "1e-07", "1e-06", "1e-05"}) {
        const double c = cellByClass.count(cls) ? cellByClass[cls] : 0.0;
        rep.add(std::string("explore.prelude_share.rate_") + cls, "1",
                c > 0.0 ? preludeByClass[cls] / c : 0.0);
    }
    rep.add("sim.construct_ms", "ms", perCall("sim.construct"));
    const auto &runs = durMs["sim.run"];
    rep.add("sim.run_ms", "ms", median(runs));
    const auto [runTail, runPct] = tail(runs);
    rep.add("sim.run_tail_ms", "ms", runTail);
    rep.add("sim.run_tail_pct", "%", runPct);

    SimCounts total;
    for (const auto &c : tracedCounts)
        total += c;
    double runSeconds = 0.0;
    for (double ms : runs)
        runSeconds += ms / 1000.0;
    // Counts are per grid (one pass); the run time spans every traced
    // pass, so scale the cycles by the number of passes.
    rep.add("sim.mcycles_per_s", "Mcycle/s",
            static_cast<double>(total.cycles) * withSpans.size() / 1e6 /
                runSeconds);
    rep.add("sim.sim_mcycles", "Mcycle",
            static_cast<double>(total.cycles) / 1e6);
    rep.add("sim.periods", "count", static_cast<double>(total.periods));
    rep.add("sim.backups", "count", static_cast<double>(total.backups));
    rep.add("sim.restores", "count", static_cast<double>(total.restores));
    rep.add("sim.power_failures", "count",
            static_cast<double>(total.powerFailures));
    rep.add("fault.bit_flips", "count", static_cast<double>(total.bitFlips));
    rep.add("runtime.clank.violations", "count",
            static_cast<double>(total.violations));
    rep.add("runtime.clank.watchdogs", "count",
            static_cast<double>(total.watchdogs));

    rep.add("explore.cell_p50_ms", "ms", median(cellMs));
    const auto [cellTail, cellPct] = tail(cellMs);
    rep.add("explore.cell_tail_ms", "ms", cellTail);
    rep.add("explore.cell_tail_pct", "%", cellPct);
    rep.add("explore.cell_samples", "count",
            static_cast<double>(cellMs.size()));

    std::vector<double> util, steals, mk, csvMs;
    for (const Rep &r : base) {
        util.push_back(r.report.utilization());
        double s = 0.0;
        for (const auto &w : r.report.workers)
            s += static_cast<double>(w.steals);
        steals.push_back(s);
        const double workers = static_cast<double>(r.report.workers.size());
        mk.push_back(r.report.elapsedSeconds /
                     (r.report.busySeconds / workers));
        csvMs.push_back(r.csvS * 1000.0);
    }
    rep.add("explore.utilization", "1", median(util));
    rep.add("explore.steals", "count", median(steals));
    rep.add("explore.makespan_over_ideal", "1", median(mk));
    rep.add("cli.csv_ms", "ms", median(csvMs));

    // ResultCache, timed directly: appends into a fresh store, reopen
    // (load), then one lookup per cell.
    {
        const std::string dir = b.repDir();
        std::vector<double> appendUs, lookupUs;
        {
            explore::ResultCache cache(dir, b.gridName);
            for (std::size_t i = 0; i < b.grid.size(); ++i) {
                const auto t = Clock::now();
                cache.store(b.grid[i], b.opt.seed, base.front().results[i]);
                appendUs.push_back(secondsSince(t) * 1e6);
            }
        }
        const auto tl = Clock::now();
        explore::ResultCache cache(dir, b.gridName);
        const double loadMs = secondsSince(tl) * 1000.0;
        bool allHit = cache.loadedRecords() == b.grid.size();
        for (std::size_t i = 0; i < b.grid.size(); ++i) {
            explore::JobResult out;
            const auto t = Clock::now();
            allHit &= cache.lookup(b.grid[i], b.opt.seed, out);
            lookupUs.push_back(secondsSince(t) * 1e6);
            allHit &= out.fields() == base.front().results[i].fields();
        }
        rep.check("store_round_trip", allHit,
                  std::to_string(cache.loadedRecords()) + " records reloaded");
        rep.add("explore.store.append_us", "us", median(appendUs));
        rep.add("explore.store.load_ms", "ms", loadMs);
        rep.add("explore.cache.lookup_us", "us", median(lookupUs));
        selfS["explore"] +=
            (median(appendUs) + median(lookupUs)) * 1e-6 * tracedCells;
        fs::remove_all(dir);
    }

    // Service layer: spawn, per-result latency, overhead, broker stats.
    double latP50 = 0.0, latTail = 0.0, latPct = 0.0, overheadS = 0.0;
    std::string stats;
    if (remote) {
        std::vector<double> over;
        for (std::size_t i = 0; i < remotes.size(); ++i)
            over.push_back(remotes[i].cellsS - base[i].cellsS);
        overheadS = median(over);

        // submit → each ClientResult, into a fresh store.
        std::vector<double> latency;
        svc::Client client(b.broker->socket);
        svc::BatchOptions bo;
        bo.name = b.gridName + "-latency";
        bo.seed = b.opt.seed;
        const auto ts = Clock::now();
        client.submit(bo, b.grid);
        svc::Client::Outcome outcome;
        std::vector<explore::JobResult> results(b.grid.size());
        while (client.nextOutcome(outcome)) {
            latency.push_back(secondsSince(ts) * 1000.0);
            results[outcome.index] = outcome.result;
        }
        const bool same = rowsHash(b.grid, results) == base.front().hash;
        rep.check("client_stream_rows", same,
                  same ? "identical" : "client stream rows differ");
        stats = b.broker->stats();
        b.stopBroker();
        latP50 = median(latency);
        std::tie(latTail, latPct) = tail(latency);
        selfS["svc"] = overheadS * static_cast<double>(withSpans.size());
    }
    rep.add("svc.spawn_ms", "ms", remote ? median(spawnMs) : 0.0);
    rep.add("svc.result_latency_ms", "ms", latP50);
    rep.add("svc.result_latency_tail_ms", "ms", latTail);
    rep.add("svc.result_latency_tail_pct", "%", latPct);
    rep.add("svc.overhead_s", "s", overheadS);
    const double leases = remote ? jsonNumber(stats, "leases") : 0.0;
    rep.add("svc.jobs_per_lease", "count",
            leases > 0.0 ? jsonNumber(stats, "results") / leases : 0.0);
    for (const char *k : {"redispatches", "frame_errors", "eval_failures",
                          "store_hits"})
        rep.add(std::string("svc.") + k, "count",
                remote ? jsonNumber(stats, k) : 0.0);

    // Self time per layer, per traced cell, and what is left over.
    for (const char *layer : {"workloads", "arch", "sim", "runtime", "fault",
                              "energy", "explore", "cli", "svc"})
        rep.add(std::string("layer.") + layer + ".self_ms_per_cell", "ms",
                selfS[layer] * 1000.0 / tracedCells);
    rep.add("explore.unattributed_share", "1", unattributed / cellTotal);

    std::vector<double> baseS, spanS;
    for (std::size_t i = 0; i < base.size(); ++i) {
        baseS.push_back(base[i].cellsS);
        spanS.push_back(withSpans[i].cellsS);
    }
    rep.add("trace.overhead_frac", "1", median(spanS) / median(baseS) - 1.0);

    tracer.write(b.opt.outDir + "/spans-" + b.opt.workload + "-seed" +
                 std::to_string(b.opt.seed) + ".json");
}

/** Digest-table mode: row hashes for a range of campaign seeds. */
int
printDigests(const Options &opt)
{
    const bool fault = opt.digests == "fault";
    const auto grid = fault ? faultGrid(opt.cells) : clankGrid(opt.smoke);
    for (std::uint64_t seed = opt.seedFrom; seed <= opt.seedTo; ++seed) {
        explore::CampaignConfig cc;
        cc.name = opt.digests;
        cc.jobs = opt.jobs;
        cc.seed = seed;
        cc.cache = false;
        cc.progress = false;
        explore::Campaign campaign(cc);
        for (const auto &spec : grid)
            campaign.add(spec);
        const auto results = campaign.run(explore::evaluateJob);
        std::cout << seed << ' ' << hashHex(rowsHash(grid, results)) << ' '
                  << countNotOk(results) << std::endl;
    }
    return 0;
}

int
run(int argc, char **argv)
{
    Options opt = parseOptions(argc, argv);
    setLogLevel(LogLevel::Warn);
    // Adopt orphaned broker workers so every process started is reaped.
    prctl(PR_SET_CHILD_SUBREAPER, 1);
    if (!opt.digests.empty())
        return printDigests(opt);

    Bench b;
    b.opt = opt;
    if (opt.workload == "fault-grid" || opt.workload == "fault-remote") {
        b.gridName = "fault";
        b.makeGrid = [&opt] { return faultGrid(opt.cells); };
    } else if (opt.workload == "clank-grid") {
        b.gridName = "clank";
        b.makeGrid = [&opt] { return clankGrid(opt.smoke); };
    } else {
        throw std::runtime_error("unknown workload '" + opt.workload +
                                 "' (fault-grid | clank-grid | fault-remote)");
    }
    b.grid = b.makeGrid();
    // Every fault workload runs through the broker at least once.
    if (opt.outDir.empty() || (b.gridName == "fault" && opt.explored.empty()))
        throw std::runtime_error("--out-dir (and --explored) are required");
    fs::create_directories(opt.outDir);

    Report rep;
    if (opt.trace)
        traced(b, rep);
    else
        endToEnd(b, rep);

    // Accuracy line: the model-vs-simulator error must not move.
    rep.geomeanErrorPct = validationGeomeanPct(opt.jobs);
    const bool accurate =
        std::fabs(rep.geomeanErrorPct - quotedGeomeanErrorPct) < 0.005;
    rep.check("validation_geomean_error", accurate,
              num(rep.geomeanErrorPct) + "% vs quoted " +
                  num(quotedGeomeanErrorPct) + "%");
    rep.add("core.validation_geomean_error_pct", "%", rep.geomeanErrorPct);

    std::cout << rep.json(opt) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
