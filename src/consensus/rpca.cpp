#include "consensus/rpca.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.hpp"
#include "util/contract.hpp"
#include "util/sha256.hpp"

namespace xrpl::consensus {

namespace {

/// The testnet is a different ledger instance with its own genesis;
/// a constant marker folded into every testnet page hash keeps the
/// two chains disjoint even when their headers coincide.
ledger::Hash256 testnet_tag() {
    ledger::Hash256 tag;
    tag.bytes[0] = 0x7e;  // 't'-ish
    tag.bytes[1] = 0x57;
    return tag;
}

/// A page hash that is NOT on any chain: what a stale or forked
/// validator signs. Unique per (round, validator) so forks don't
/// accidentally collide with real pages.
ledger::Hash256 divergent_hash(std::uint64_t round, std::uint32_t validator_index) {
    util::Sha256 hasher;
    hasher.update("divergent");
    std::array<std::uint8_t, 12> buf;
    for (int i = 0; i < 8; ++i) {
        buf[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(round >> (56 - 8 * i));
    }
    for (int i = 0; i < 4; ++i) {
        buf[static_cast<std::size_t>(8 + i)] =
            static_cast<std::uint8_t>(validator_index >> (24 - 8 * i));
    }
    hasher.update(buf);
    const util::Sha256Digest digest = hasher.finish();
    ledger::Hash256 h;
    std::copy(digest.begin(), digest.end(), h.bytes.begin());
    return h;
}

}  // namespace

ConsensusSimulation::ConsensusSimulation(std::vector<ValidatorSpec> specs,
                                         ConsensusConfig config)
    : config_(config) {
    validators_.reserve(specs.size());
    std::uint32_t index = 0;
    for (ValidatorSpec& spec : specs) {
        Validator v;
        v.index = index++;
        v.node_key = derive_node_key(spec.label);
        v.spec = std::move(spec);
        if (v.spec.on_unl) ++unl_size_;
        if (v.is_testnet()) ++testnet_size_;
        validators_.push_back(std::move(v));
    }
}

RoundOutcome ConsensusSimulation::run_round(std::uint64_t round,
                                            util::RippleTime close_time,
                                            std::vector<ledger::Hash256> tx_ids,
                                            ValidationStream& stream) {
    if (!rng_seeded_) {
        // config_.seed is a derivation key (see two_week_config);
        // materializing the stream's root generator draws the same
        // sequence the plain seeding convention did.
        rng_ = util::RngStream(config_.seed).rng();
        rng_seeded_ = true;
    }
    // A round number reused (or run backwards) would let one validator
    // validate two different pages at the same sequence — exactly the
    // conflicting-validation fault the protocol's safety argument
    // excludes. One run_round() call per round keeps signatures unique
    // per (validator, sequence).
    XRPL_ASSERT(round > last_round_,
                "rounds must increase monotonically across run_round calls");
    last_round_ = round;
    // 0.8 is the post-2015 value the paper cites; anything outside
    // (0, 1] is not a vote fraction at all. (The pre-2015 0.5 ablation
    // in micro_benchmarks stays legal.)
    XRPL_ASSERT(config_.quorum > 0.0 && config_.quorum <= 1.0,
                "quorum must be a fraction of the UNL in (0, 1]");
    const auto quorum_votes = static_cast<std::size_t>(
        std::ceil(config_.quorum * static_cast<double>(unl_size_)));
    XRPL_INVARIANT(quorum_votes <= unl_size_,
                   "required votes cannot exceed the UNL size");

    // Candidate pages this round, each hashed once: validators sign
    // the candidate's hash and a quorum seals the same page object.
    // Their hashes depend on the entire history below them, via the
    // parent-hash chain. A period without testnet validators never
    // builds a testnet page.
    ledger::ClosedLedger main_candidate = main_chain_.candidate(close_time, std::move(tx_ids));
    std::optional<ledger::ClosedLedger> testnet_candidate;
    if (testnet_size_ > 0) {
        testnet_candidate = testnet_chain_.candidate(close_time, {testnet_tag()});
    }

    std::size_t unl_candidate_votes = 0;
    std::size_t testnet_votes = 0;
    std::size_t validations_published = 0;

    for (const Validator& v : validators_) {
        if (!rng_.bernoulli(v.availability())) continue;

        ledger::Hash256 signed_hash;
        bool votes_main_candidate = false;
        if (v.is_testnet()) {
            signed_hash = testnet_candidate->hash;
            ++testnet_votes;
        } else if (v.spec.behavior == ValidatorBehavior::kForked) {
            signed_hash = divergent_hash(round, v.index);
        } else if (rng_.bernoulli(v.sync_probability())) {
            signed_hash = main_candidate.hash;
            votes_main_candidate = true;
        } else {
            signed_hash = divergent_hash(round, v.index);
        }

        if (votes_main_candidate && v.spec.on_unl) ++unl_candidate_votes;
        stream.publish(ValidationMessage{round, v.index, signed_hash});
        ++validations_published;
    }

    // One registry touch per round with locally accumulated totals —
    // the per-validator loop above stays metric-free.
    static obs::Counter& rounds_run = obs::counter("consensus.rounds");
    static obs::Counter& validations = obs::counter("consensus.validations");
    static obs::Counter& unl_votes = obs::counter("consensus.votes.unl");
    static obs::Counter& tn_votes = obs::counter("consensus.votes.testnet");
    rounds_run.add();
    validations.add(validations_published);
    unl_votes.add(unl_candidate_votes);
    tn_votes.add(testnet_votes);

    RoundOutcome outcome;
    ++cumulative_.rounds;
    XRPL_INVARIANT(unl_candidate_votes <= unl_size_,
                   "candidate votes are a subset of the UNL");

    // Main chain quorum check.
    if (unl_candidate_votes >= quorum_votes && unl_size_ > 0) {
        outcome.main_page = main_chain_.append(std::move(main_candidate)).hash;
        ++cumulative_.main_pages_closed;
        outcome.main_closed = true;
        stream.publish(PageClosed{round, ChainTag::kMain, outcome.main_page});
        static obs::Counter& pages_main = obs::counter("consensus.pages.main");
        pages_main.add();
    } else {
        ++cumulative_.main_rounds_failed;
        static obs::Counter& failed = obs::counter("consensus.rounds_failed");
        failed.add();
    }

    // Testnet: same 80% rule among testnet validators.
    if (testnet_candidate) {
        const auto testnet_quorum = static_cast<std::size_t>(
            std::ceil(config_.quorum * static_cast<double>(testnet_size_)));
        if (testnet_votes >= testnet_quorum) {
            const ledger::Hash256 sealed =
                testnet_chain_.append(std::move(*testnet_candidate)).hash;
            ++cumulative_.testnet_pages_closed;
            outcome.testnet_closed = true;
            stream.publish(PageClosed{round, ChainTag::kTestnet, sealed});
            static obs::Counter& pages_tn =
                obs::counter("consensus.pages.testnet");
            pages_tn.add();
        }
    }
    return outcome;
}

ConsensusStats ConsensusSimulation::run(ValidationStream& stream) {
    double clock = 0.0;
    for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
        clock += config_.round_interval_seconds;
        const util::RippleTime close_time{
            config_.start_time.seconds + static_cast<std::int64_t>(clock)};
        (void)run_round(round, close_time, {}, stream);
    }
    return cumulative_;
}

}  // namespace xrpl::consensus
