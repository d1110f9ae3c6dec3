// wsp::server::DataPlane — the engine's real timeline (engine.h): worker
// pool, sharded SessionTable and RecordScheduler, turning each Admission
// into one real session and one SessionEvent.  Events live in arrival
// order in a deque (stable addresses); workers fill them, and the run()
// thread reads them only after the scheduler drained, so every fold over
// them is thread-invariant.  The destructor drains the scheduler before
// any member is destroyed: whatever throws after the first admit, no
// worker outlives the table, the events or the server key.
#pragma once

#include <deque>
#include <optional>

#include "crypto/rsa.h"
#include "server/engine.h"
#include "server/scheduler.h"
#include "server/session_table.h"
#include "server/virtual_model.h"
#include "support/threadpool.h"

namespace wsp::server {

class DataPlane {
 public:
  /// `config` must be resolved (Engine::config()).  Generates the run's
  /// server key (seeded from the scenario) unless every phase resumes.
  DataPlane(const EngineConfig& config, const TrafficScenario& scenario);
  /// Drains every pushed session before tearing anything down.
  ~DataPlane();
  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Inserts the session and pushes its pump task on its shard — the one
  /// path for fresh arrivals and for parked entries of restored
  /// checkpoints.  Throws std::logic_error for a full handshake when the
  /// run generated no server key, and whatever SessionTable::insert
  /// throws (a duplicate live id).
  void admit(const Admission& admission);

  /// Appends a checkpoint's finalized outcome in arrival order.
  void restore(const SessionEvent& event);

  /// The checkpoint quiesce barrier: RecordScheduler::quiesce's proof that
  /// every pushed item ran, then the check that every session finalized
  /// and left the table.  Throws std::logic_error on either violation.
  void quiesce();

  /// After quiesce(): appends every event to cp.entries and chains the
  /// per-shard events digests (cp.shards sized by VirtualModel::capture).
  void capture(EngineCheckpoint& cp) const;

  /// Drains, then folds the events into `rep` (rep.shards sized): outcome
  /// counters, per-shard events digests, bytes_digest, the event stream
  /// when config.record_events is set, and the scheduler's host counters.
  void fold(RunReport& rep);

 private:
  /// The pump task body, on a worker: establish (with the handshake retry
  /// ladder), stream, tear down, then finalize the event and erase.
  void run_session(SessionEvent& event, Session* session,
                   SessionHandle handle, bool resume, unsigned budget,
                   std::size_t batch);

  bool record_events_;
  std::optional<rsa::PrivateKey> server_key_;
  ThreadPool pool_;
  SessionTable table_;
  std::deque<SessionEvent> events_;
  RecordScheduler sched_;
};

}  // namespace wsp::server
