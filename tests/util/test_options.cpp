// util::Options — the typed XRPL_* registry: parsing, defaults, the
// explicit-presence probe, and the self-documenting option table.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/options.hpp"

namespace xrpl::util {
namespace {

const char* const kAllVars[] = {
    "XRPL_THREADS",
    "XRPL_OBS",
    "XRPL_BENCH_PAYMENTS",
    "XRPL_BENCH_CONSENSUS_SCALE",
    "XRPL_BENCH_REPLAY_PAYMENTS",
    "XRPL_BENCH_DATAGEN_PAYMENTS",
    "XRPL_BENCH_JSON_DIR",
    "XRPL_DATASET_DIR",
};

/// The XRPL_* variables set in the environment, as (name, value).
std::vector<std::pair<std::string, std::string>> xrpl_variables() {
    std::vector<std::pair<std::string, std::string>> found;
    for (char** entry = environ; *entry != nullptr; ++entry) {
        const std::string_view variable(*entry);
        if (!variable.starts_with("XRPL_")) continue;
        const std::size_t equals = variable.find('=');
        found.emplace_back(std::string(variable.substr(0, equals)),
                           std::string(variable.substr(equals + 1)));
    }
    return found;
}

/// Every test starts and ends with an environment free of XRPL_*
/// variables (the suite may itself run under XRPL_THREADS pins; save
/// and restore them).
class OptionsTest : public ::testing::Test {
protected:
    void SetUp() override {
        saved_ = xrpl_variables();
        for (const auto& [name, value] : saved_) ::unsetenv(name.c_str());
    }
    void TearDown() override {
        for (const auto& [name, value] : xrpl_variables()) ::unsetenv(name.c_str());
        for (const auto& [name, value] : saved_) {
            ::setenv(name.c_str(), value.c_str(), 1);
        }
    }

private:
    std::vector<std::pair<std::string, std::string>> saved_;
};

TEST_F(OptionsTest, DefaultsWithCleanEnvironment) {
    const Options opts = Options::from_env();
    EXPECT_GE(opts.threads, 1u);
    EXPECT_FALSE(opts.obs);
    EXPECT_FALSE(opts.obs_explicit);
    EXPECT_EQ(opts.bench_payments, 250'000u);
    EXPECT_EQ(opts.bench_consensus_scale, 10u);
    EXPECT_EQ(opts.bench_replay_payments, 40'000u);
    EXPECT_EQ(opts.bench_datagen_payments, 100'000u);
    EXPECT_EQ(opts.bench_json_dir, ".");
    EXPECT_EQ(opts.dataset_dir, "");  // caching off by default
}

TEST_F(OptionsTest, ParsesEveryKnob) {
    ::setenv("XRPL_THREADS", "3", 1);
    ::setenv("XRPL_OBS", "1", 1);
    ::setenv("XRPL_BENCH_PAYMENTS", "1234", 1);
    ::setenv("XRPL_BENCH_CONSENSUS_SCALE", "55", 1);
    ::setenv("XRPL_BENCH_REPLAY_PAYMENTS", "777", 1);
    ::setenv("XRPL_BENCH_DATAGEN_PAYMENTS", "4321", 1);
    ::setenv("XRPL_BENCH_JSON_DIR", "/tmp/reports", 1);
    ::setenv("XRPL_DATASET_DIR", "/tmp/datasets", 1);
    const Options opts = Options::from_env();
    EXPECT_EQ(opts.threads, 3u);
    EXPECT_TRUE(opts.obs);
    EXPECT_TRUE(opts.obs_explicit);
    EXPECT_EQ(opts.bench_payments, 1234u);
    EXPECT_EQ(opts.bench_consensus_scale, 55u);
    EXPECT_EQ(opts.bench_replay_payments, 777u);
    EXPECT_EQ(opts.bench_datagen_payments, 4321u);
    EXPECT_EQ(opts.bench_json_dir, "/tmp/reports");
    EXPECT_EQ(opts.dataset_dir, "/tmp/datasets");
}

TEST_F(OptionsTest, ObsExplicitDistinguishesZeroFromAbsent) {
    // The bench harness needs "user said 0" vs "user said nothing":
    // both parse to obs == false, only one is explicit.
    ::setenv("XRPL_OBS", "0", 1);
    const Options explicit_off = Options::from_env();
    EXPECT_FALSE(explicit_off.obs);
    EXPECT_TRUE(explicit_off.obs_explicit);

    ::unsetenv("XRPL_OBS");
    const Options absent = Options::from_env();
    EXPECT_FALSE(absent.obs);
    EXPECT_FALSE(absent.obs_explicit);
}

TEST_F(OptionsTest, MalformedValuesFallBack) {
    const std::size_t hardware = Options::from_env().threads;
    EXPECT_GE(hardware, 1u);
    // Zero, and anything but a whole positive number, falls back to
    // the hardware default.
    for (const char* threads : {"lots", "0", "4cores", "-2"}) {
        ::setenv("XRPL_THREADS", threads, 1);
        EXPECT_EQ(Options::from_env().threads, hardware) << threads;
    }
    ::setenv("XRPL_OBS", "yes", 1);
    ::setenv("XRPL_BENCH_PAYMENTS", "-5", 1);
    const Options opts = Options::from_env();
    EXPECT_FALSE(opts.obs);  // strict flag: only "0"/"1" parse
    EXPECT_EQ(opts.bench_payments, 250'000u);
}

TEST_F(OptionsTest, UnknownVariablesWarn) {
    // A retired or misspelt knob would otherwise do nothing, silently.
    ::setenv("XRPL_PATH_INDEX", "0", 1);
    ::setenv("XRPL_THRAEDS", "2", 1);
    ::testing::internal::CaptureStderr();
    (void)Options::from_env();
    const std::string warned = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warned.find("XRPL_PATH_INDEX"), std::string::npos) << warned;
    EXPECT_NE(warned.find("XRPL_THRAEDS"), std::string::npos) << warned;

    ::unsetenv("XRPL_PATH_INDEX");
    ::unsetenv("XRPL_THRAEDS");
    for (const char* name : kAllVars) ::setenv(name, "1", 1);
    ::testing::internal::CaptureStderr();
    (void)Options::from_env();
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST_F(OptionsTest, FromEnvReReadsTheEnvironment) {
    ::setenv("XRPL_THREADS", "2", 1);
    EXPECT_EQ(Options::from_env().threads, 2u);
    ::setenv("XRPL_THREADS", "6", 1);
    EXPECT_EQ(Options::from_env().threads, 6u);  // pure re-parse, no cache
}

TEST_F(OptionsTest, TableCoversEveryKnobExactlyOnce) {
    std::set<std::string> names;
    for (const OptionInfo& row : option_table()) {
        EXPECT_TRUE(names.insert(row.name).second) << row.name;
        EXPECT_STRNE(row.description, "") << row.name;
    }
    for (const char* name : kAllVars) {
        EXPECT_TRUE(names.count(name)) << name << " missing from kOptionTable";
    }
    EXPECT_EQ(names.size(), std::size(kAllVars));
}

TEST_F(OptionsTest, MarkdownListsEveryKnob) {
    const std::string markdown = options_markdown();
    for (const char* name : kAllVars) {
        EXPECT_NE(markdown.find(std::string("`") + name + "`"),
                  std::string::npos)
            << name;
    }
}

}  // namespace
}  // namespace xrpl::util
