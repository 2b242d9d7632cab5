// The sls command-line verbs (paper Table 2) and checkpoint migration
// (sls send / sls recv).
#ifndef SRC_CORE_CLI_H_
#define SRC_CORE_CLI_H_

#include <string>
#include <vector>

#include "src/core/sls.h"

namespace aurora {

// Serialized checkpoint stream: one epoch in the epoch wire format
// (src/core/epoch_stream.h), a data frame per memory object and then the
// commit frame with the manifest. Suitable for piping to a file or a
// remote host.
struct CheckpointStream {
  std::vector<uint8_t> bytes;
};

class SlsCli {
 public:
  explicit SlsCli(Sls* sls) : sls_(sls) {}

  // sls attach: attaches `proc` to the named group (created on demand).
  [[nodiscard]] Result<ConsistencyGroup*> Attach(const std::string& group_name, Process* proc);
  // sls detach: makes the process ephemeral — still quiesced with its
  // group, no longer persisted (Table 2).
  [[nodiscard]] Status Detach(Process* proc);
  // sls checkpoint: manual named checkpoint. A non-empty `backend_name`
  // (`sls ckpt --backend=`) routes the group's checkpoints through that
  // backend first (see SetBackend for when that is legal).
  [[nodiscard]] Result<CheckpointResult> Checkpoint(const std::string& group_name,
                                                    const std::string& name,
                                                    const std::string& backend_name = "");
  // sls restore. A non-empty `backend_name` restores from that backend
  // instead of the local object store.
  [[nodiscard]] Result<RestoreResult> Restore(const std::string& group_name, uint64_t epoch = 0,
                                              RestoreMode mode = RestoreMode::kFull,
                                              const std::string& backend_name = "");
  // sls ckpt --backend=<name>: routes the group's future checkpoints through
  // the named destination (store, or a registered replica). Legal only while
  // the group has no checkpoint state in flight; a source-only backend (a
  // standby) is refused.
  [[nodiscard]] Status SetBackend(const std::string& group_name, const std::string& backend_name);
  // sls ckpt --in-flight-epochs=<n>: epoch-overlap backpressure knob for
  // periodic checkpoints. 1 (default) = a new epoch never starts before the
  // previous flush is durable; 2 = one flush may still be in flight.
  [[nodiscard]] Status SetInFlightEpochs(const std::string& group_name, uint32_t limit);
  // sls ps: human-readable listing of groups and their checkpoints.
  std::vector<std::string> Ps();
  // sls stat: human-readable snapshot of the machine-wide metrics registry —
  // counters, gauges, simulated-time histograms — plus the phase spans of the
  // most recent checkpoint or restore.
  std::vector<std::string> Stat();
  // sls suspend / sls resume.
  [[nodiscard]] Result<CheckpointResult> Suspend(const std::string& group_name);
  [[nodiscard]] Result<RestoreResult> Resume(const std::string& group_name);
  // sls dump: ELF coredump of one process in the group.
  [[nodiscard]] Result<std::vector<uint8_t>> Dump(const std::string& group_name,
                                                  uint64_t local_pid);
  // Reclaims history: drops checkpoints older than `epoch` and frees their
  // exclusive blocks (execution history is bounded only by storage).
  [[nodiscard]] Status Prune(uint64_t epoch);
  // sls scrub: walks every committed epoch's metadata and data blocks,
  // verifying the per-extent CRCs against the media. One verdict line per
  // epoch plus one line per bad block, then a machine total.
  [[nodiscard]] Result<std::vector<std::string>> Scrub();
  // sls gc: segment-log space report — segment-state census, live/dead
  // bytes, sealed-segment utilization histogram, gc.* counters, and each
  // group's retention policy. With `run`, drives one compaction pass first
  // and reports what it did.
  [[nodiscard]] Result<std::vector<std::string>> Gc(bool run = false);

  // sls promote: partition-tolerant failover onto the named replica
  // backend's standby — drains the link so an in-flight epoch finishes
  // streaming (validated speculation), rolls torn epochs back to the last
  // durable one, and restores the group from the standby's warm images
  // (O(dirty-delta), not O(image)). `force` overrides the heartbeat lease
  // (the split-brain guard); without it a fresh lease fails typed kBusy.
  [[nodiscard]] Result<RestoreResult> Promote(const std::string& group_name,
                                              const std::string& backend_name,
                                              bool force = false);
  // sls demote: returns a promoted standby to ingest duty, rebuilding its
  // warm images from the applied table.
  [[nodiscard]] Status Demote(const std::string& backend_name);
  // sls repl: replication status — role, watermarks, lag, link state, and
  // every repl.* counter.
  [[nodiscard]] Result<std::vector<std::string>> Repl(const std::string& backend_name);

  // sls send: serializes the group's newest durable checkpoint (manifest +
  // memory) into a stream, charging network transfer time. A page repeated
  // anywhere in the stream ships once. With `since_epoch` nonzero, only
  // blocks written after that epoch are shipped (pre-copy rounds /
  // continuous high availability).
  [[nodiscard]] Result<CheckpointStream> Send(const std::string& group_name, uint64_t epoch = 0,
                                              uint64_t since_epoch = 0);
  // sls recv: validates the stream as one whole epoch, hands every frame to
  // a ReplicaStandby, which applies the epoch to its image table, then
  // restores the group from that standby (Sls::Restore). A damaged stream,
  // or one that joins frames of more than one epoch, is kCorrupt
  // (kNotSupported for an unknown format version) and reaches no standby.
  // The image takes fresh object names at the first checkpoint after
  // arrival.
  // A migration session is the caller's standby: incremental streams apply
  // onto the image it holds and each round replaces the running instance. A
  // replayed epoch returns the running group; when the session's last
  // restore left nothing running, the session's epoch restores again. A
  // delta on an epoch the session has not applied is kBadState and leaves
  // the session as it was. Without a session the stream gets a standby of
  // its own for the call, and a group already running here is refused
  // (kExists) and left as it was.
  [[nodiscard]] Result<RestoreResult> Recv(const CheckpointStream& stream,
                                           ReplicaStandby* session = nullptr);

 private:
  Sls* sls_;
};

}  // namespace aurora

#endif  // SRC_CORE_CLI_H_
