// Full-history builder: the substitute for the paper's 500 GB ledger
// download.
//
// A two-stage pipeline on splittable RNG streams (DESIGN.md §12):
// population builds the snapshot, then generation is SHARDED into
// fixed payment-count slices that run as exec::parallel_for tasks —
// each slice clones the snapshot, draws from streams derived from
// root/"slice"/i, and its shard merges strictly in slice order — so
// output is bit-identical for every XRPL_THREADS width. Collects
// everything the study and the appendix figures consume: the columnar
// payment store (Fig 3), per-currency counts and amount samples
// (Fig 4, Fig 5), hop and parallel-path histograms (Fig 6),
// per-intermediary appearance counts (Fig 7(a)), and the final ledger
// state (trust and balances for Fig 7(b,c), the snapshot for
// Table II).
#pragma once

#include <array>
#include <unordered_map>
#include <vector>

#include "datagen/config.hpp"
#include "datagen/population.hpp"
#include "datagen/workload.hpp"
#include "ledger/ledger.hpp"
#include "ledger/payment_columns.hpp"
#include "paths/payment_engine.hpp"

namespace xrpl::datagen {

struct GeneratedHistory {
    ledger::LedgerState ledger;
    Population population;
    /// The payment dataset: columnar, dictionary-encoded. Scans take
    /// payments.view().
    ledger::PaymentColumns payments;

    // --- aggregates, filled while the history streams past -----------
    std::unordered_map<ledger::Currency, std::uint64_t> currency_counts;
    std::unordered_map<ledger::Currency, std::vector<float>> amounts_by_currency;
    /// hop_histogram[h] = payments routed through exactly h
    /// intermediate accounts (h >= 1; direct transfers not counted).
    std::vector<std::uint64_t> hop_histogram;
    /// parallel_histogram[k] = multi-hop payments split across k paths.
    std::vector<std::uint64_t> parallel_histogram;
    std::unordered_map<ledger::AccountID, std::uint64_t> intermediary_counts;
    std::array<std::uint64_t, 8> category_counts{};

    std::uint64_t pages = 0;
    std::uint64_t multi_hop_payments = 0;
    util::RippleTime first_close;
    util::RippleTime last_close;

    WorkloadStats workload_stats;
    std::vector<std::uint64_t> offer_placements;  // per Market Maker
    std::uint64_t offers_placed_total = 0;
};

/// The population stage's complete output: the seeded ledger (trust
/// lines, deposits, maker float) plus the account roster. This is the
/// prefix of generate_history — cheap (no payment workload), and
/// byte-identical to the population inside a full generation of the
/// same config, so consumers that load payments from a snapshot can
/// still pair them with the exact population that produced them.
struct PopulationSnapshot {
    ledger::LedgerState ledger;
    Population population;
};

/// Run ONLY the population stage of the pipeline. Same RNG stream
/// derivation as generate_history, so the result is identical to the
/// full run's population/initial ledger.
[[nodiscard]] PopulationSnapshot generate_population_only(
    const GeneratorConfig& config);

/// Generate a complete history. Deterministic in the config seed
/// alone: the same config yields byte-identical output at any
/// XRPL_THREADS width (slicing is governed by
/// GeneratorConfig::payments_per_slice, never by the thread count).
[[nodiscard]] GeneratedHistory generate_history(const GeneratorConfig& config);

/// Build the Table II replay workload against an existing population:
/// `count` payments, `cross_fraction` of them cross-currency (the
/// paper's Feb-Aug 2015 slice is 68.7% cross), keeping only payments
/// that actually deliver when executed in order against a (scratch
/// clone of the) snapshot — mirroring the paper, which replays "all
/// payments submitted after the snapshot and successfully delivered
/// until August 2015". Replaying the result against a fresh clone of
/// `snapshot` therefore delivers 100% by construction.
[[nodiscard]] std::vector<paths::PaymentRequest> make_delivered_replay_workload(
    const Population& population, const ledger::LedgerState& snapshot,
    std::size_t count, double cross_fraction, util::Rng& rng);

}  // namespace xrpl::datagen
