#include "capture.hpp"

#include <memory>

#include "harness/runner.hpp"

namespace perfbench {

using namespace pythia;

namespace {

struct RawEvent {
  TerminalId id;
  std::uint64_t now_ns;
};

/// Observer whose only job is to hook the rank oracle's event stream.
class StreamTap final : public mpisim::CommObserver {
 public:
  StreamTap(Oracle& oracle, std::vector<RawEvent>& out) {
    oracle.set_event_hook([&out](TerminalId id, std::uint64_t now_ns) {
      out.push_back({id, now_ns});
    });
  }
};

/// Captures one run and re-interns its events into `registry` by
/// (kind name, aux), rank by rank, so ids do not depend on the order in
/// which concurrently running ranks first met each event.
std::vector<Stream> capture_run(const apps::App& app, std::uint64_t seed,
                                double scale, EventRegistry& registry) {
  std::vector<std::vector<RawEvent>> raw(kRanks);
  harness::RunConfig config;
  config.mode = harness::Mode::kVanilla;
  config.ranks = kRanks;
  config.app.scale = scale;
  config.app.seed = seed;
  config.observer_factory = [&raw](int rank, Oracle& oracle) {
    return std::make_unique<StreamTap>(oracle,
                                       raw[static_cast<std::size_t>(rank)]);
  };
  const harness::RunResult result = harness::run_app(app, config);
  const EventRegistry& source = result.trace.registry;

  std::vector<TerminalId> remap(source.event_count(), 0);
  std::vector<bool> mapped(source.event_count(), false);
  std::vector<Stream> streams(kRanks);
  for (std::size_t rank = 0; rank < raw.size(); ++rank) {
    Stream& stream = streams[rank];
    stream.events.reserve(raw[rank].size());
    stream.times_ns.reserve(raw[rank].size());
    for (const RawEvent& event : raw[rank]) {
      if (!mapped[event.id]) {
        remap[event.id] = registry.intern(
            source.kind_name(source.kind_of(event.id)),
            source.aux_of(event.id));
        mapped[event.id] = true;
      }
      stream.events.push_back(remap[event.id]);
      stream.times_ns.push_back(event.now_ns);
    }
  }
  return streams;
}

std::uint64_t total_events(const std::vector<Stream>& streams) {
  std::uint64_t total = 0;
  for (const Stream& stream : streams) total += stream.events.size();
  return total;
}

}  // namespace

std::uint64_t AppStreams::reference_events() const {
  return total_events(reference);
}
std::uint64_t AppStreams::replay_events() const {
  return total_events(replay);
}

std::vector<AppStreams> capture_streams(
    const std::vector<const apps::App*>& apps, std::uint64_t seed,
    double scale) {
  std::vector<AppStreams> out(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    out[i].app = apps[i];
    out[i].reference = capture_run(*apps[i], seed, scale, out[i].registry);
    out[i].replay = capture_run(*apps[i], seed + 1, scale, out[i].registry);
  }
  return out;
}

std::vector<const apps::App*> app_set(const std::string& name) {
  // Regular: the Table I apps whose grammars stay small (EP, FT and IS
  // emit too few events to matter). Irregular: Quicksilver and AMG from
  // Table I plus the adversarial AMR / WorkSteal / Branchy skeletons.
  const std::vector<std::string> names =
      name == "regular"
          ? std::vector<std::string>{"BT", "CG", "LU", "MG", "SP", "Lulesh",
                                     "Kripke", "miniFE"}
          : std::vector<std::string>{"Quicksilver", "AMG", "AMR",
                                     "WorkSteal", "Branchy"};
  std::vector<const apps::App*> out;
  for (const std::string& app_name : names) {
    if (const apps::App* app = apps::find_app(app_name)) out.push_back(app);
  }
  return out;
}

}  // namespace perfbench
