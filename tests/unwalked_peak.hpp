/**
 * @file
 * A probe sink for CLH_TRY's node bound (locks/clh_try.hpp): the most
 * redirects parked and not yet walked at once.
 */
#ifndef NUCALOCK_TESTS_UNWALKED_PEAK_HPP
#define NUCALOCK_TESTS_UNWALKED_PEAK_HPP

#include <algorithm>
#include <cstdint>

#include "obs/probe.hpp"

namespace nucalock::testing_support {

/**
 * +1 at a timed abandonment's AbandonStart, which precedes its redirect
 * store, and -1 at the QueueReclaim of the walk that read the redirect.
 * So the count never falls below the redirects outstanding. Wrap it in
 * obs::ThreadSafeSink on the native backend.
 */
class UnwalkedPeak final : public obs::ProbeSink
{
  public:
    void
    on_event(const obs::ProbeRecord& record) override
    {
        if (record.event == obs::LockEvent::AbandonStart)
            peak_ = std::max(peak_, ++now_);
        else if (record.event == obs::LockEvent::QueueReclaim)
            --now_;
    }

    std::uint64_t peak() const { return peak_; }

  private:
    std::uint64_t now_ = 0;
    std::uint64_t peak_ = 0;
};

} // namespace nucalock::testing_support

#endif // NUCALOCK_TESTS_UNWALKED_PEAK_HPP
