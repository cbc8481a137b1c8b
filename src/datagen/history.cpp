#include "datagen/history.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/contract.hpp"

namespace xrpl::datagen {

using ledger::Amount;
using ledger::Currency;
using paths::PaymentRequest;

namespace {

/// Everything one generation slice produces. Records carry SLICE-LOCAL
/// close times (epoch 0); the merge rebases them onto the global
/// timeline. Aggregates are pre-reduced per slice so the merge is a
/// cheap order-independent sum — only the record stream and the
/// per-currency amount samples are order-sensitive, and those merge
/// strictly in slice order.
struct SliceResult {
    std::vector<ledger::TxRecord> records;
    std::array<std::uint64_t, 8> category_counts{};
    std::unordered_map<Currency, std::uint64_t> currency_counts;
    std::unordered_map<Currency, std::vector<float>> amounts_by_currency;
    std::vector<std::uint64_t> hop_histogram;
    std::vector<std::uint64_t> parallel_histogram;
    std::unordered_map<ledger::AccountID, std::uint64_t> intermediary_counts;
    std::uint64_t multi_hop_payments = 0;
    std::uint64_t pages = 0;
    /// Slice-local close time of the last page (== slice duration).
    std::int64_t duration_seconds = 0;
    WorkloadStats stats;
    std::vector<std::uint64_t> offer_placements;
    std::uint64_t offers_placed_total = 0;
    /// Populated only for the last slice (adopted as history.ledger);
    /// earlier slices drop their clone on return to bound memory.
    ledger::LedgerState final_ledger;
};

void add_histogram(std::vector<std::uint64_t>& into,
                   const std::vector<std::uint64_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

/// Run one slice against a private clone of the population snapshot,
/// on streams derived from root/"slice"/index — a pure function of
/// (config, base snapshot, slice index), whatever thread runs it.
SliceResult run_slice(const GeneratorConfig& config,
                      const Population& population,
                      const ledger::LedgerState& base,
                      const util::RngStream& root, std::size_t slice,
                      std::uint64_t slice_target, bool keep_ledger) {
    // ScopedTimer, not Phase: slices run on pool workers, where only
    // order-free histograms keep the snapshot deterministic.
    static obs::Histogram& slice_ns = obs::histogram("datagen.slice_ns");
    const obs::ScopedTimer timer(slice_ns);
    SliceResult out;
    ledger::LedgerState ledger = base.clone();
    paths::PaymentEngine engine(ledger);
    const util::RngStream slice_stream =
        root.derive("slice", static_cast<std::uint64_t>(slice));
    // Only slice 0 may emit the history's single 44-hop payment.
    WorkloadGenerator workload(config, population, engine,
                               slice_stream.derive("workload"),
                               /*emit_fortyfour=*/slice == 0);
    util::Rng clock_rng = slice_stream.derive("clock").rng();

    auto sink = [&](const WorkloadOutcome& outcome) {
        out.records.push_back(outcome.record);
        ++out.category_counts[static_cast<std::size_t>(outcome.category)];

        ++out.currency_counts[outcome.record.currency];
        out.amounts_by_currency[outcome.record.currency].push_back(
            static_cast<float>(outcome.record.amount.to_double()));

        const ledger::TxResult& result = outcome.result;
        if (result.intermediate_hops >= 1) {
            ++out.multi_hop_payments;
            if (out.hop_histogram.size() <= result.intermediate_hops) {
                out.hop_histogram.resize(result.intermediate_hops + 1, 0);
            }
            ++out.hop_histogram[result.intermediate_hops];
            if (out.parallel_histogram.size() <= result.parallel_paths) {
                out.parallel_histogram.resize(result.parallel_paths + 1, 0);
            }
            ++out.parallel_histogram[result.parallel_paths];
            // Fig 7 counts intermediaries over real traffic; the MTL
            // chains are the attacker's own sybil accounts, which the
            // paper's top-50 visibly excludes (48 equal-height sybils
            // would otherwise fill the whole plot).
            if (outcome.category != PaymentCategory::kMtlSpam) {
                for (const ledger::AccountID& hop : result.intermediaries) {
                    ++out.intermediary_counts[hop];
                }
            }
        }
    };

    util::RippleTime clock{};  // slice-local epoch; rebased at merge
    while (out.records.size() < slice_target) {
        clock.seconds += static_cast<std::int64_t>(
            config.page_interval_seconds + clock_rng.uniform(-0.5, 1.5));
        workload.emit_page(clock, sink);
        ++out.pages;
    }
    out.duration_seconds = clock.seconds;

    out.stats = workload.stats();
    out.offer_placements = workload.offer_placements();
    out.offers_placed_total = workload.offers_placed_total();
    if (keep_ledger) out.final_ledger = std::move(ledger);
    return out;
}

}  // namespace

PopulationSnapshot generate_population_only(const GeneratorConfig& config) {
    PopulationSnapshot snapshot;
    const util::RngStream root(config.seed);
    snapshot.population = build_population(snapshot.ledger, config,
                                           root.derive("population"));
    return snapshot;
}

GeneratedHistory generate_history(const GeneratorConfig& config) {
    const obs::Phase phase("datagen.generate");
    GeneratedHistory history;
    const util::RngStream root(config.seed);

    {
        // Through the shared stage so a cached-payments consumer that
        // rebuilds only the population gets the identical snapshot.
        const obs::Phase stage("population");
        PopulationSnapshot snapshot = generate_population_only(config);
        history.ledger = std::move(snapshot.ledger);
        history.population = std::move(snapshot.population);
    }

    // --- stage 1: slice fan-out ---------------------------------------
    // The slice count is a pure function of the config — NEVER of
    // XRPL_THREADS — and every slice owns derived streams plus a
    // private clone of the snapshot, so each SliceResult is
    // bit-identical whatever thread (or order) computed it.
    const std::uint64_t per_slice = std::max<std::uint64_t>(
        std::uint64_t{1}, config.payments_per_slice);
    const std::size_t num_slices = static_cast<std::size_t>(
        (config.target_payments + per_slice - 1) / per_slice);

    std::vector<SliceResult> slices(num_slices);
    {
        const obs::Phase stage("slices");
        exec::parallel_for(num_slices, 1,
                           [&](std::size_t begin, std::size_t end) {
            for (std::size_t s = begin; s < end; ++s) {
                const std::uint64_t slice_target =
                    s + 1 == num_slices
                        ? config.target_payments -
                              per_slice * static_cast<std::uint64_t>(s)
                        : per_slice;
                slices[s] =
                    run_slice(config, history.population, history.ledger, root,
                              s, slice_target, s + 1 == num_slices);
            }
        });
    }

    // --- stage 2: ordered merge ---------------------------------------
    // Strictly in slice order: records are rebased onto the global
    // timeline and interned into PaymentColumns sequentially (so the
    // dictionary keeps first-seen order), amount samples append, and
    // the pre-reduced aggregates sum.
    const obs::Phase merge_stage("merge");
    static obs::Counter& slices_done = obs::counter("datagen.slices");
    static obs::Counter& payments = obs::counter("datagen.payments");
    static obs::Counter& pages = obs::counter("datagen.pages");
    history.payments.reserve(config.target_payments);
    history.first_close = config.start_time;
    std::int64_t offset = config.start_time.seconds;
    for (SliceResult& slice : slices) {
        slices_done.add();
        payments.add(slice.records.size());
        pages.add(slice.pages);
        for (ledger::TxRecord record : slice.records) {
            record.time.seconds += offset;
            history.payments.push_back(record);
        }
        offset += slice.duration_seconds;

        for (std::size_t c = 0; c < slice.category_counts.size(); ++c) {
            history.category_counts[c] += slice.category_counts[c];
        }
        for (const auto& [currency, count] : slice.currency_counts) {
            history.currency_counts[currency] += count;
        }
        for (auto& [currency, amounts] : slice.amounts_by_currency) {
            auto& into = history.amounts_by_currency[currency];
            into.insert(into.end(), amounts.begin(), amounts.end());
        }
        add_histogram(history.hop_histogram, slice.hop_histogram);
        add_histogram(history.parallel_histogram, slice.parallel_histogram);
        for (const auto& [hop, count] : slice.intermediary_counts) {
            history.intermediary_counts[hop] += count;
        }
        history.multi_hop_payments += slice.multi_hop_payments;
        history.pages += slice.pages;

        for (std::size_t c = 0; c < slice.stats.attempts.size(); ++c) {
            history.workload_stats.attempts[c] += slice.stats.attempts[c];
            history.workload_stats.failures[c] += slice.stats.failures[c];
        }
        if (history.offer_placements.size() < slice.offer_placements.size()) {
            history.offer_placements.resize(slice.offer_placements.size(), 0);
        }
        for (std::size_t m = 0; m < slice.offer_placements.size(); ++m) {
            history.offer_placements[m] += slice.offer_placements[m];
        }
        history.offers_placed_total += slice.offers_placed_total;
    }
    history.last_close = util::RippleTime{offset};
    history.ledger = std::move(slices.back().final_ledger);

    XRPL_INVARIANT(history.payments.size() >= config.target_payments,
                   "generation must run until the payment target is met");
    XRPL_INVARIANT(history.first_close.seconds <= history.last_close.seconds,
                   "page close times must advance monotonically");
#if XRPL_CONTRACTS_ENABLED
    // Every payment lands in exactly one §IV traffic category, so the
    // category counts must re-sum to the history size (the per-figure
    // benches normalize by these counts).
    std::size_t categorized = 0;
    for (const std::uint64_t count : history.category_counts) {
        categorized += count;
    }
    XRPL_INVARIANT(categorized == history.payments.size(),
                   "traffic categories must partition the payment history");
#endif
    return history;
}

namespace {

/// Shared candidate machinery for the replay workload builders.
class ReplayCandidateSource {
public:
    ReplayCandidateSource(const Population& population, util::Rng& rng)
        : population_(&population),
          rng_(&rng),
          merchant_sampler_(
              std::max<std::size_t>(population.merchants.size(), 1), 1.0) {
        for (std::uint32_t i = 0; i < population.merchants.size(); ++i) {
            by_currency_[population.merchant_profiles[i].home].push_back(i);
        }
    }

    /// One candidate of the requested kind, or nullopt if the draw was
    /// unusable (caller just draws again).
    std::optional<PaymentRequest> next(bool cross) {
        const Population& population = *population_;
        util::Rng& rng = *rng_;
        const std::size_t user_index =
            rng.uniform_u64(0, population.users.size() - 1);
        const UserProfile& profile = population.user_profiles[user_index];
        PaymentRequest request;
        request.sender = population.users[user_index];

        if (cross) {
            const std::size_t merchant_index = merchant_sampler_.sample(rng);
            const MerchantProfile& merchant =
                population.merchant_profiles[merchant_index];
            if (merchant.home == profile.home) return std::nullopt;
            request.destination = population.merchants[merchant_index];
            const double amount =
                (20.0 / usd_value(merchant.home)) * rng.lognormal(0.0, 1.0);
            request.deliver = Amount::iou(merchant.home, amount);
            request.source_currency = profile.home;
            return request;
        }

        const auto it = by_currency_.find(profile.home);
        if (it == by_currency_.end() || it->second.empty()) return std::nullopt;
        std::uint32_t merchant_index =
            it->second[rng.uniform_u64(0, it->second.size() - 1)];
        // The paper's Feb-Aug 2015 slice depends heavily on Market
        // Makers even for single-currency traffic (Table II: only 36%
        // deliver without them). Most replayed payments therefore
        // target merchants whose gateway set is disjoint from the
        // sender's deposits — reachable only through maker liquidity
        // or the occasional hub bridge.
        if (rng.bernoulli(0.70)) {
            for (int attempt = 0; attempt < 24; ++attempt) {
                const std::uint32_t candidate =
                    it->second[rng.uniform_u64(0, it->second.size() - 1)];
                const auto& gws =
                    population.merchant_profiles[candidate].gateways;
                bool disjoint = true;
                for (const auto& user_gw : profile.deposit_gateways) {
                    if (std::find(gws.begin(), gws.end(), user_gw) !=
                        gws.end()) {
                        disjoint = false;
                        break;
                    }
                }
                if (disjoint) {
                    merchant_index = candidate;
                    break;
                }
            }
        }
        request.destination = population.merchants[merchant_index];
        request.deliver = Amount::iou(
            profile.home, profile.typical_amount * rng.lognormal(0.0, 1.0));
        request.source_currency = profile.home;
        return request;
    }

private:
    const Population* population_;
    util::Rng* rng_;
    util::ZipfSampler merchant_sampler_;
    std::unordered_map<Currency, std::vector<std::uint32_t>> by_currency_;
};

}  // namespace

std::vector<PaymentRequest> make_delivered_replay_workload(
    const Population& population, const ledger::LedgerState& snapshot,
    std::size_t count, double cross_fraction, util::Rng& rng) {
    ReplayCandidateSource source(population, rng);
    ledger::LedgerState scratch = snapshot.clone();
    paths::PaymentEngine engine(scratch);

    const auto cross_target =
        static_cast<std::size_t>(cross_fraction * static_cast<double>(count));
    std::size_t cross_kept = 0;
    std::size_t single_kept = 0;

    std::vector<PaymentRequest> requests;
    requests.reserve(count);
    // Bounded attempts so a mis-tuned topology cannot loop forever.
    for (std::size_t attempt = 0; attempt < count * 20; ++attempt) {
        if (requests.size() >= count) break;
        const bool want_cross = cross_kept < cross_target &&
                                (single_kept >= count - cross_target ||
                                 rng.bernoulli(cross_fraction));
        auto candidate = source.next(want_cross);
        if (!candidate) continue;
        if (!engine.execute(*candidate).success) continue;
        if (candidate->cross_currency()) {
            if (cross_kept >= cross_target) continue;
            ++cross_kept;
        } else {
            if (single_kept >= count - cross_target) continue;
            ++single_kept;
        }
        requests.push_back(std::move(*candidate));
    }
    return requests;
}

}  // namespace xrpl::datagen
