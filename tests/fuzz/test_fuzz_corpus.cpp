// Corpus replay: every .model file under tests/fuzz/corpus/ is run on both
// engines and must produce identical behavior. The corpus holds (a) shrunk
// reproducers of every divergence the fuzzer ever found — permanent
// regression tests — and (b) generator snapshots chosen for feature
// coverage (round-robin, EDF, interrupts, fault plans, bounded queues), so
// sanitizer CI replays representative models without paying for a full
// sweep. Add to it with:
//   tools/fuzz_engines --print SEED > tests/fuzz/corpus/gen_seedSEED.model
// or by copying the fuzz_divergence_<seed>.model a failed sweep wrote.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/runner.hpp"
#include "fuzz/spec.hpp"

#ifndef RTSC_FUZZ_CORPUS_DIR
#error "RTSC_FUZZ_CORPUS_DIR must be defined by the build"
#endif

namespace fuzz = rtsc::fuzz;

namespace {

std::vector<std::filesystem::path> corpus_files() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(RTSC_FUZZ_CORPUS_DIR))
        if (entry.path().extension() == ".model") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(FuzzCorpus, DirectoryIsNotEmpty) {
    ASSERT_FALSE(corpus_files().empty())
        << "no .model files in " << RTSC_FUZZ_CORPUS_DIR;
}

TEST(FuzzCorpus, EveryModelParsesAndRoundTrips) {
    for (const auto& path : corpus_files()) {
        SCOPED_TRACE(path.filename().string());
        const std::string text = slurp(path);
        ASSERT_FALSE(text.empty());
        const fuzz::ModelSpec spec = fuzz::from_text(text);
        EXPECT_EQ(fuzz::to_text(fuzz::from_text(fuzz::to_text(spec))),
                  fuzz::to_text(spec));
    }
}

TEST(FuzzCorpus, DigestsMatchTheGoldenValues) {
    // run_model's digest covers every compared row — state, overhead, comm
    // and marker streams, the metrics snapshot and the attribution rows —
    // so pinning it turns "behaviour-identical refactor" into a check
    // against the recorded behaviour, not only between the two engines. A
    // new corpus model adds its digest here; a deliberate behaviour change
    // updates the affected values and says why.
    const std::map<std::string, std::uint64_t> golden = {
        {"gen_seed1.model", 0xa00f4f565af719abull},
        {"gen_seed101.model", 0x454e5490a6547064ull},
        {"gen_seed137.model", 0x039420a5cc335510ull},
        {"gen_seed19.model", 0x42adb44db1ea73d6ull},
        {"gen_seed256.model", 0x468dec4624e974c8ull},
        {"gen_seed333.model", 0xf94e662c3f7aab2cull},
        {"gen_seed42.model", 0x8e24f4eb33ab48b8ull},
        {"gen_seed7.model", 0xd223349d04addafaull},
        {"seed167_same_instant_leave_sample.model", 0xb325939bd71e6065ull},
        {"seed401_cross_cpu_sem_instant.model", 0x97e9182d0476cc53ull},
        {"seed415_fswitch_sync_leaver_resume.model", 0x0521d1b988468a32ull},
        {"seed75_formula_load_timeout_tie.model", 0x5301c93c8c1fde82ull},
        {"seed881_horizon_cut_dvfs_overhead.model", 0xd01f4a58c4a85103ull},
        {"sv_chain_depth2.model", 0x688cd5c85ae53b5eull},
    };
    for (const auto& path : corpus_files()) {
        const std::string name = path.filename().string();
        SCOPED_TRACE(name);
        const auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << "no golden digest for this model";
        const fuzz::ModelSpec spec = fuzz::from_text(slurp(path));
        for (const auto kind : {rtsc::rtos::EngineKind::procedure_calls,
                                rtsc::rtos::EngineKind::rtos_thread})
            EXPECT_EQ(fuzz::run_model(spec, kind).digest, it->second);
    }
}

TEST(FuzzCorpus, ProceduralEngineNeedsFewerActivations) {
    // The paper's §4 ordering on every corpus model: the procedure-call
    // engine simulates the same behaviour with fewer kernel activations.
    for (const auto& path : corpus_files()) {
        SCOPED_TRACE(path.filename().string());
        const fuzz::ModelSpec spec = fuzz::from_text(slurp(path));
        EXPECT_LT(
            fuzz::run_model(spec, rtsc::rtos::EngineKind::procedure_calls)
                .kernel_activations,
            fuzz::run_model(spec, rtsc::rtos::EngineKind::rtos_thread)
                .kernel_activations);
    }
}

TEST(FuzzCorpus, EnginesAgreeOnEveryModel) {
    for (const auto& path : corpus_files()) {
        SCOPED_TRACE(path.filename().string());
        const fuzz::ModelSpec spec = fuzz::from_text(slurp(path));
        const fuzz::Divergence d = fuzz::diff_engines(spec);
        EXPECT_FALSE(d.diverged) << d.to_string();
    }
}

} // namespace
