// Table II — payments submitted and delivered in the absence of
// Market Makers.
//
// Builds the snapshot network, replays a payment stream (68.7%
// cross-currency, the paper's Feb-Aug 2015 mix) against a pristine
// clone, then removes every Market Maker and all exchange offers and
// replays the same stream, "carefully handling the user balances by
// updating them after each successful payment".
#include <algorithm>
#include <iostream>

#include "bench/common.hpp"
#include "bench/harness.hpp"
#include "paths/order_book.hpp"
#include "paths/replay.hpp"
#include "util/table.hpp"

XRPL_BENCH("table2_market_makers", "Table II",
           "payments delivered without Market Makers") {
    using namespace xrpl;
    const datagen::GeneratedHistory& history = bench::dataset();

    // Replay stream size (the paper's: 1.7 M).
    constexpr std::uint64_t replay_count = 40'000;
    util::Rng rng = util::RngStream(777).derive("replay").rng();
    // As the paper does, replay the payments "submitted after the
    // snapshot and successfully delivered".
    const auto payments = datagen::make_delivered_replay_workload(
        history.population, history.ledger, replay_count, 0.687, rng);
    std::cout << "replaying " << util::format_count(payments.size())
              << " delivered payments (68.7% cross-currency, as in the "
                 "paper's Feb-Aug 2015 slice)\n\n";

    // Offer concentration preamble (the paper's lead-in to Table II).
    const auto makers = paths::maker_concentration(history.ledger);
    std::uint64_t total_offers = history.offers_placed_total;
    auto placements = history.offer_placements;
    std::sort(placements.rbegin(), placements.rend());
    const auto share_of_top = [&](std::size_t k) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < k && i < placements.size(); ++i) {
            sum += placements[i];
        }
        return total_offers == 0
                   ? 0.0
                   : static_cast<double>(sum) / static_cast<double>(total_offers);
    };
    std::cout << "offers placed: " << util::format_count(total_offers)
              << " by " << makers.size() << " active Market Makers\n"
              << "top-10 makers placed " << util::format_percent(share_of_top(10))
              << ", top-50 " << util::format_percent(share_of_top(50))
              << ", top-100 " << util::format_percent(share_of_top(100)) << "\n";
    bench::print_paper_note("50% of 90M offers from 10 makers, 75% from 50, "
                            "87% from 100.");
    std::cout << "\n";

    // Baseline replay.
    ledger::LedgerState baseline_world = history.ledger.clone();
    paths::PaymentEngine baseline_engine(baseline_world);
    const paths::ReplayStats baseline = paths::replay(baseline_engine, payments);

    // Market-Maker-free replay.
    ledger::LedgerState mmless_world = history.ledger.clone();
    paths::PaymentEngine mmless_engine(mmless_world);
    const paths::ReplayStats without = paths::replay_without(
        mmless_engine, payments, history.population.market_makers, true);

    const auto row = [](const char* name, std::uint64_t submitted,
                        std::uint64_t delivered) {
        const double rate =
            submitted == 0 ? 0.0
                           : static_cast<double>(delivered) /
                                 static_cast<double>(submitted);
        return std::vector<std::string>{name, util::format_count(submitted),
                                        util::format_count(delivered),
                                        util::format_percent(rate)};
    };

    std::cout << "baseline (Market Makers present):\n";
    util::TextTable base_table({"Category", "Submitted", "Delivered", "Rate"});
    base_table.add_row(row("Cross-currency", baseline.cross_submitted,
                           baseline.cross_delivered));
    base_table.add_row(row("Single-currency", baseline.single_submitted,
                           baseline.single_delivered));
    base_table.add_row(row("Total", baseline.submitted(), baseline.delivered()));
    base_table.render(std::cout);

    std::cout << "\nwithout Market Makers (accounts and offers removed):\n";
    util::TextTable mmless_table({"Category", "Submitted", "Delivered", "Rate"});
    mmless_table.add_row(row("Cross-currency", without.cross_submitted,
                             without.cross_delivered));
    mmless_table.add_row(row("Single-currency", without.single_submitted,
                             without.single_delivered));
    mmless_table.add_row(row("Total", without.submitted(), without.delivered()));
    mmless_table.render(std::cout);

    std::cout << "\n";
    bench::print_paper_note(
        "Table II: cross-currency 1,185,521 submitted / 0 delivered (0%); "
        "single-currency 538,169 / 194,300 (36.10%); total 1,723,690 / "
        "194,300 (11.2%).");
    return 0;
}
