// Primitive cost model for the simulated hardware.
//
// Every cost here is a *primitive* (a lock, a cacheline miss, one PTE
// update, one device command), not a result. Higher-level latencies such as
// "checkpoint stop time" emerge from how many primitives each real code path
// executes. Defaults are calibrated to the paper's testbed anchor points
// (see DESIGN.md section 5):
//   - journal write of 4 KiB = 28 us  => 26 us NVMe write latency
//   - journal write of 1 GiB = 417 ms => 2.575 GB/s aggregate bandwidth
//   - incremental checkpoint slope ~23 ns/page => per-page write-protect cost
#ifndef SRC_BASE_COST_MODEL_H_
#define SRC_BASE_COST_MODEL_H_

#include <cstdint>

#include "src/base/units.h"

namespace aurora {

struct CostModel {
  // --- CPU / memory primitives -------------------------------------------
  SimDuration lock_acquire = 18;          // uncontended mutex acquire+release
  SimDuration cacheline_miss = 72;        // pointer chase to cold memory
  SimDuration small_alloc = 60;           // kernel zone allocation
  double mem_copy_bytes_per_ns = 10.0;    // hot memcpy bandwidth (10 GB/s)
  double serialize_bytes_per_ns = 1.8;    // field-by-field serialization
  // Hash + generation compare against the serialization cache; charged per
  // entity whose cached blob is reused inside the stopped window.
  SimDuration serialize_cache_lookup = 90;

  // --- MMU / VM primitives ------------------------------------------------
  SimDuration pte_protect = 22;           // write-protect one PTE
  SimDuration pte_install = 140;          // install one PTE on a soft fault
  SimDuration tlb_shootdown_ipi = 4000;   // IPI + remote TLB flush, per core
  SimDuration fault_entry = 650;          // trap + vm_fault entry/exit
  SimDuration page_alloc = 180;           // allocate one physical page
  // A full COW fault = fault_entry + page_alloc + 4 KiB copy + pte_install.

  // --- Quiescing -----------------------------------------------------------
  SimDuration quiesce_ipi = 4500;         // IPI round to force syscall boundary
  SimDuration syscall_restart = 900;      // rewind PC + restart bookkeeping
  SimDuration syscall_drain = 250;        // wait for a non-sleeping call to finish
  SimDuration fpu_flush_ipi = 1000;       // IPI to flush lazily-saved FPU state

  // --- Storage devices (per NVMe device; striping aggregates bandwidth) ----
  SimDuration nvme_write_latency = 26 * kMicrosecond;
  double nvme_write_bytes_per_ns = 2.575;  // aggregate striped write stream

  // --- Network -------------------------------------------------------------
  SimDuration net_rtt = 140 * kMicrosecond;      // 10 GbE round trip incl. client stack
  double net_bytes_per_ns = 1.1;                 // ~9 Gb/s effective

  // --- Flush-path dedup / compression --------------------------------------
  // Content hashing runs at near-memcpy speed (one pass, multiplicative
  // mix); LZ-class compression is the slow direction, decompression the
  // fast one. Charged on the sim clock per extent that takes the stage.
  double content_hash_bytes_per_ns = 6.0;
  double compress_bytes_per_ns = 2.2;
  double decompress_bytes_per_ns = 4.4;

  // --- Fault handling ------------------------------------------------------
  // First backoff of the shared IoRetryPolicy; later attempts grow
  // geometrically. Charged to the simulated clock only when a fault fires.
  SimDuration io_retry_backoff = 50 * kMicrosecond;

  // --- CRIU-style userspace checkpointing primitives -----------------------
  // CRIU gathers state via ptrace/procfs round trips and streams pages
  // through a pipe to a dumper process; these are far more expensive than
  // in-kernel object inspection. Calibrated to Table 1 (49 ms OS state,
  // 413 ms memory copy for 500 MB).
  SimDuration criu_object_query = 30 * kMicrosecond;   // one procfs/ptrace query
  double criu_mem_copy_bytes_per_ns = 1.21;            // pipe-based page streaming
  double criu_image_write_bytes_per_ns = 1.43;         // image file writeout

  // Derived helpers ---------------------------------------------------------
  SimDuration MemCopy(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / mem_copy_bytes_per_ns);
  }
  SimDuration Serialize(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / serialize_bytes_per_ns);
  }
  SimDuration NvmeWrite(uint64_t bytes) const {
    return nvme_write_latency +
           static_cast<SimDuration>(static_cast<double>(bytes) / nvme_write_bytes_per_ns);
  }
  SimDuration NetTransfer(uint64_t bytes) const {
    return net_rtt / 2 +
           static_cast<SimDuration>(static_cast<double>(bytes) / net_bytes_per_ns);
  }
  SimDuration ContentHash(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / content_hash_bytes_per_ns);
  }
  SimDuration Compress(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / compress_bytes_per_ns);
  }
  SimDuration Decompress(uint64_t bytes) const {
    return static_cast<SimDuration>(static_cast<double>(bytes) / decompress_bytes_per_ns);
  }
};

}  // namespace aurora

#endif  // SRC_BASE_COST_MODEL_H_
