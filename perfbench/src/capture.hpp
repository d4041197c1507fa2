// Input generation: per-rank event streams captured from the application
// skeletons. The program under test only ever receives these streams.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/event.hpp"

namespace perfbench {

/// Ranks per captured run: the streams, and the harness runs behind the
/// virtual speedups, stay within the 4 cores the benchmark is sized for.
inline constexpr int kRanks = 4;

struct Stream {
  std::vector<pythia::TerminalId> events;
  std::vector<std::uint64_t> times_ns;  ///< virtual clock at each event
};

/// One application's streams under one registry, so terminal ids agree
/// between the reference execution (seed s) and the later one (s + 1).
struct AppStreams {
  const pythia::apps::App* app = nullptr;
  pythia::EventRegistry registry;
  std::vector<Stream> reference;  ///< seed s, one per rank
  std::vector<Stream> replay;     ///< seed s + 1, one per rank

  std::uint64_t reference_events() const;
  std::uint64_t replay_events() const;
};

/// Runs each app vanilla at seeds `seed` and `seed + 1` with an observer
/// that copies every event the rank's oracle is handed.
std::vector<AppStreams> capture_streams(
    const std::vector<const pythia::apps::App*>& apps, std::uint64_t seed,
    double scale);

/// "regular" (Table I apps with stable structure) or "irregular".
std::vector<const pythia::apps::App*> app_set(const std::string& name);

}  // namespace perfbench
