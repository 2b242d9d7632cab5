#include "src/core/serialize.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "src/base/serializer.h"

namespace aurora {

namespace {

constexpr uint32_t kManifestMagic = 0x414d414e;  // "AMAN"
constexpr uint32_t kManifestVersion = 1;

// Field-chase counts per object type: gathering one POSIX object is one
// lock plus pointer chasing through cold kernel structures (paper 9.2).
constexpr int kVnodeChases = 18;
constexpr int kPipeChases = 14;
constexpr int kSocketChases = 20;
constexpr int kPtyChases = 33;
constexpr int kShmChases = 20;
constexpr int kKqueueBaseChases = 18;
constexpr SimDuration kKeventCost = 12;           // amortized lock+copy per kevent
constexpr SimDuration kSysvNamespaceScan = 10400;  // global namespace walk
constexpr SimDuration kShmShadowCost = 2800;       // shadow alloc + backmap update
constexpr SimDuration kDevfsLockCost = 28 * kMicrosecond;  // pty restore (Table 4)

enum class EntryKind : uint8_t { kAnonChain = 0, kDevice = 1 };

struct Gathered {
  // Insertion-ordered so control-message references resolve determinately.
  std::vector<FileObject*> objects;
  std::set<uint64_t> object_kids;
  std::vector<FileDescription*> descriptions;
  std::set<uint64_t> description_kids;
  std::vector<std::shared_ptr<VmObject>> memory;  // distinct chain links
  std::set<uint64_t> memory_ids;
};

void GatherDescription(const std::shared_ptr<FileDescription>& desc, Gathered* out);

void GatherObject(const std::shared_ptr<FileObject>& obj, Gathered* out) {
  if (!out->object_kids.insert(obj->kernel_id()).second) {
    return;
  }
  out->objects.push_back(obj.get());
  if (obj->type() == FileType::kSocket) {
    auto* sock = static_cast<Socket*>(obj.get());
    // In-flight SCM_RIGHTS descriptors ride in the receive buffer; they are
    // checkpointed like any other descriptor (paper section 5.3).
    for (const SockSegment& seg : sock->recv_buf) {
      if (seg.control.has_value()) {
        for (const auto& desc : seg.control->fds) {
          GatherDescription(desc, out);
        }
      }
    }
  }
}

void GatherDescription(const std::shared_ptr<FileDescription>& desc, Gathered* out) {
  if (!out->description_kids.insert(desc->kernel_id).second) {
    return;
  }
  out->descriptions.push_back(desc.get());
  if (desc->object != nullptr) {
    GatherObject(desc->object, out);
  }
}

void GatherMemoryChain(const std::shared_ptr<VmObject>& top, Gathered* out) {
  std::shared_ptr<VmObject> obj = top;
  while (obj != nullptr && obj->type() == VmObjectType::kAnonymous) {
    if (out->memory_ids.insert(obj->id()).second) {
      out->memory.push_back(obj);
    }
    obj = obj->parent_ref();
  }
}

void SerializeSockAddr(BinaryWriter* w, const SockAddr& a) {
  w->PutU32(a.ip);
  w->PutU16(a.port);
  w->PutString(a.path);
}

Result<SockAddr> ReadSockAddr(BinaryReader* r) {
  SockAddr a;
  AURORA_ASSIGN_OR_RETURN(a.ip, r->U32());
  AURORA_ASSIGN_OR_RETURN(a.port, r->U16());
  AURORA_ASSIGN_OR_RETURN(a.path, r->String());
  return a;
}

// Emits the OID chain for a map entry's object: consecutive links sharing
// one OID (live shadow over its frozen base) are logically one on-disk
// region and are deduplicated; a vnode link terminates the chain.
void SerializeEntryChain(BinaryWriter* w, const VmMapEntry& entry,
                         const EnsureOidFn& ensure_oid) {
  std::vector<uint64_t> oids;
  uint64_t vnode_ino = 0;
  std::shared_ptr<VmObject> cur = entry.object;
  while (cur != nullptr) {
    if (cur->type() == VmObjectType::kVnode) {
      // Bottom link is a file mapping: record the inode; the file's data
      // persists through the Aurora file system, not the checkpoint.
      vnode_ino = cur->backing_ino();
      break;
    }
    Oid oid = ensure_oid(cur.get());
    if (oids.empty() || oids.back() != oid.value) {
      oids.push_back(oid.value);
    }
    cur = cur->parent_ref();
  }
  w->PutU64(oids.size());
  for (uint64_t oid : oids) {
    w->PutU64(oid);
  }
  w->PutU64(vnode_ino);
}

// Serialization-cache entity kinds; combined with the entity's kernel
// identity they key the cached blob. Processes have their own records
// (SerializeCache::processes).
constexpr uint8_t kEntityFileObject = 1;
constexpr uint8_t kEntityDescription = 2;

SimDuration GatherCost(const CostModel& cost, int chases) {
  return cost.lock_acquire + cost.cacheline_miss * static_cast<SimDuration>(chases);
}

// The per-entity serializers below write one record into a sub-writer and
// return the cost a *fresh* gather of that entity charges (pointer chasing
// through cold kernel structures plus buffer marshaling). They never advance
// the clock themselves: the caller charges fresh, cached or elided cost
// according to the serialization mode.

SimDuration SerializeFileObject(const CostModel& cost, BinaryWriter* w, FileObject* obj,
                                const std::set<uint64_t>& object_kids,
                                const EnsureOidFn& ensure_oid) {
  SimDuration fresh = 0;
  w->PutU64(obj->kernel_id());
  w->PutU8(static_cast<uint8_t>(obj->type()));
  switch (obj->type()) {
    case FileType::kVnode: {
      fresh += GatherCost(cost, kVnodeChases);
      auto* vn = static_cast<Vnode*>(obj);
      // Inode reference only: no name-cache or namei work at stop time.
      w->PutU64(vn->ino());
      w->PutU64(vn->size());
      w->PutU32(vn->nlink());
      break;
    }
    case FileType::kPipe: {
      fresh += GatherCost(cost, kPipeChases);
      auto* pipe = static_cast<Pipe*>(obj);
      w->PutBool(pipe->read_open);
      w->PutBool(pipe->write_open);
      std::vector<uint8_t> buf(pipe->buffer.begin(), pipe->buffer.end());
      w->PutBytes(buf.data(), buf.size());
      fresh += cost.Serialize(buf.size());
      break;
    }
    case FileType::kSocket: {
      fresh += GatherCost(cost, kSocketChases);
      auto* sock = static_cast<Socket*>(obj);
      w->PutU8(static_cast<uint8_t>(sock->domain()));
      w->PutU8(static_cast<uint8_t>(sock->proto()));
      w->PutU8(static_cast<uint8_t>(sock->state));
      SerializeSockAddr(w, sock->local);
      SerializeSockAddr(w, sock->peer_addr);
      w->PutU32(sock->snd_seq);
      w->PutU32(sock->rcv_seq);
      w->PutI64(sock->backlog);
      w->PutBool(sock->external_sync_disabled);
      w->PutBool(sock->peer_shutdown);
      auto peer = sock->peer.lock();
      w->PutU64(peer != nullptr && object_kids.count(peer->kernel_id()) > 0
                    ? peer->kernel_id()
                    : 0);
      w->PutU64(sock->options.size());
      for (const auto& [k, v] : sock->options) {
        w->PutI64(k);
        w->PutI64(v);
      }
      // Buffered data; the accept queue of listening sockets is omitted by
      // design (clients retransmit the SYN).
      w->PutU64(sock->recv_buf.size());
      for (const SockSegment& seg : sock->recv_buf) {
        w->PutBytes(seg.data.data(), seg.data.size());
        SerializeSockAddr(w, seg.from);
        w->PutBool(seg.control.has_value());
        if (seg.control.has_value()) {
          w->PutU64(seg.control->fds.size());
          for (const auto& desc : seg.control->fds) {
            w->PutU64(desc->kernel_id);
          }
          w->PutU64(seg.control->cred_pid);
        }
        fresh += cost.Serialize(seg.data.size());
      }
      break;
    }
    case FileType::kKqueue: {
      auto* kq = static_cast<Kqueue*>(obj);
      fresh += GatherCost(cost, kKqueueBaseChases) + kKeventCost * kq->events().size();
      w->PutU64(kq->events().size());
      for (const KEvent& ev : kq->events()) {
        w->PutU64(ev.ident);
        w->PutI64(ev.filter);
        w->PutU64(ev.flags);
        w->PutU32(ev.fflags);
        w->PutI64(ev.data);
        w->PutU64(ev.udata);
      }
      break;
    }
    case FileType::kPty: {
      fresh += GatherCost(cost, kPtyChases);
      auto* pty = static_cast<Pseudoterminal*>(obj);
      w->PutI64(pty->index);
      w->PutU32(pty->termios_iflag);
      w->PutU32(pty->termios_oflag);
      w->PutU32(pty->termios_cflag);
      w->PutU32(pty->termios_lflag);
      w->PutU16(pty->ws_rows);
      w->PutU16(pty->ws_cols);
      w->PutU64(pty->session_sid);
      std::vector<uint8_t> in(pty->input.begin(), pty->input.end());
      std::vector<uint8_t> out(pty->output.begin(), pty->output.end());
      w->PutBytes(in.data(), in.size());
      w->PutBytes(out.data(), out.size());
      break;
    }
    case FileType::kShm: {
      fresh += GatherCost(cost, kShmChases) + kShmShadowCost;
      auto* shm = static_cast<SharedMemory*>(obj);
      if (shm->kind() == SharedMemory::Kind::kSysV) {
        // SysV requires scanning the global namespace (Table 4).
        fresh += kSysvNamespaceScan;
      }
      w->PutU8(static_cast<uint8_t>(shm->kind()));
      w->PutString(shm->name);
      w->PutI64(shm->key);
      w->PutI64(shm->shmid);
      w->PutU32(shm->mode);
      w->PutU64(shm->size);
      w->PutU64(shm->object != nullptr ? ensure_oid(shm->object.get()).value : 0);
      break;
    }
    case FileType::kDevice: {
      fresh += GatherCost(cost, 8);
      auto* dev = static_cast<DeviceFile*>(obj);
      w->PutString(dev->devname);
      w->PutBool(dev->whitelisted);
      break;
    }
  }
  return fresh;
}

SimDuration SerializeDescription(const CostModel& cost, BinaryWriter* w,
                                 const FileDescription* desc) {
  w->PutU64(desc->kernel_id);
  w->PutU64(desc->object != nullptr ? desc->object->kernel_id() : 0);
  w->PutU64(desc->offset);
  w->PutI64(desc->open_flags);
  return GatherCost(cost, 4);
}

using ProcessLayout = SerializeCache::ProcessLayout;

constexpr int kMapEntryChases = 6;  // map entry + object headers

// Appends one process record to `w`, fills `layout` (offsets from the
// record's start) and `core_fresh`, the fresh gather cost of its core
// sub-record; returns the fresh gather cost of the whole record. Each map
// entry's fresh gather is GatherCost(kMapEntryChases); the descriptor and
// AIO sub-records charge only their marshal.
SimDuration SerializeProcess(const CostModel& cost, BinaryWriter* w, const Process* proc,
                             const EnsureOidFn& ensure_oid, SerializeStats* stats,
                             ProcessLayout* layout, SimDuration* core_fresh) {
  const size_t base = w->size();
  auto offset = [&]() { return w->size() - base; };
  SimDuration fresh = GatherCost(cost, 30);  // proc structure, groups, session, credentials
  w->PutU64(proc->local_pid());
  w->PutString(proc->name());
  w->PutU64(proc->pgid);
  w->PutU64(proc->sid);
  w->PutU64(proc->parent != nullptr ? proc->parent->local_pid() : 0);
  w->PutBool(proc->zombie);
  w->PutI64(proc->exit_status);
  uint64_t ephemeral_children = 0;
  for (const Process* child : proc->children) {
    ephemeral_children += child->ephemeral ? 1 : 0;
  }
  w->PutU64(ephemeral_children);

  for (const SigAction& sa : proc->sigactions) {
    w->PutU64(sa.handler);
    w->PutU64(sa.mask);
    w->PutU32(sa.flags);
  }
  w->PutU64(proc->pending_signals);
  w->PutU64(proc->signal_queue.size());
  for (int signo : proc->signal_queue) {
    w->PutI64(signo);
  }

  w->PutU64(proc->threads().size());
  for (const auto& t : proc->threads()) {
    fresh += GatherCost(cost, 14);  // kernel stack registers + thread fields
    w->PutU64(t->local_tid());
    for (uint64_t r : t->cpu.gpr) {
      w->PutU64(r);
    }
    w->PutU64(t->cpu.rip);
    w->PutU64(t->cpu.rsp);
    w->PutU64(t->cpu.rflags);
    w->PutRaw(t->cpu.fpu.data(), t->cpu.fpu.size());
    w->PutU64(t->sigmask);
    w->PutU64(t->pending_signals);
    w->PutI64(t->priority);
    w->PutU8(static_cast<uint8_t>(t->resume_state));
    if (stats != nullptr) {
      stats->threads++;
    }
  }
  layout->core = {0, offset()};
  *core_fresh = fresh;

  uint64_t open_fds = 0;
  const auto& slots = proc->fds().slots();
  for (const auto& slot : slots) {
    open_fds += slot.desc != nullptr ? 1 : 0;
  }
  w->PutU64(open_fds);
  for (size_t fd = 0; fd < slots.size(); fd++) {
    if (slots[fd].desc == nullptr) {
      continue;
    }
    w->PutI64(static_cast<int64_t>(fd));
    w->PutU64(slots[fd].desc->kernel_id);
    w->PutBool(slots[fd].close_on_exec);
  }
  layout->fds = {layout->core.end, offset()};

  uint64_t tracked_aios = 0;
  for (const AioRequest& aio : proc->aios) {
    tracked_aios += aio.op == AioRequest::Op::kRead ? 1 : 0;
  }
  w->PutU64(tracked_aios);
  for (const AioRequest& aio : proc->aios) {
    if (aio.op != AioRequest::Op::kRead) {
      continue;  // writes were drained into the checkpoint at quiesce
    }
    w->PutU64(aio.id);
    w->PutI64(aio.fd);
    w->PutU64(aio.offset);
    w->PutU64(aio.length);
  }
  layout->aio = {layout->fds.end, offset()};

  const auto& entries = proc->vm().entries();
  w->PutU64(entries.size());
  layout->entries.clear();
  layout->entries.reserve(entries.size());
  for (const auto& [start, entry] : entries) {
    const size_t entry_begin = offset();
    fresh += GatherCost(cost, kMapEntryChases);
    w->PutU64(entry.start);
    w->PutU64(entry.end);
    w->PutI64(entry.prot);
    w->PutU64(entry.offset);
    w->PutBool(entry.copy_on_write);
    w->PutBool(entry.exclude_from_checkpoint);
    w->PutI64(entry.madvise_hint);
    if (entry.object->type() == VmObjectType::kDevice) {
      w->PutU8(static_cast<uint8_t>(EntryKind::kDevice));
      // Device payloads are reinjected at restore; the vDSO marker covers
      // platform-specific pages.
      w->PutString("vdso");
    } else {
      w->PutU8(static_cast<uint8_t>(EntryKind::kAnonChain));
      SerializeEntryChain(w, entry, ensure_oid);
      // (ino recorded by SerializeEntryChain's trailing field is 0; the
      // file identity travels through the fd that mapped it in this
      // model. Anonymous mappings dominate the paper's workloads.)
    }
    layout->entries.push_back({entry.start, entry.generation, {entry_begin, offset()}});
    if (stats != nullptr) {
      stats->vm_entries++;
    }
  }
  layout->map = {layout->aio.end, offset()};
  if (stats != nullptr) {
    stats->processes++;
  }
  return fresh;
}

// Names of the per-entity counters one pass keeps (the in-window pass keeps
// the historical ckpt.serialize_cache_* names).
struct EntityCounters {
  const char* hits;
  const char* misses;
  const char* stale;
};

EntityCounters CountersFor(SerializeMode mode) {
  if (mode == SerializeMode::kWarmCache) {
    return {"ckpt.serialize_warm_hits", "ckpt.serialize_warm_misses", "ckpt.serialize_warm_stale"};
  }
  return {"ckpt.serialize_cache_hits", "ckpt.serialize_cache_misses",
          "ckpt.serialize_cache_stale"};
}

// What reusing `bytes` cached bytes costs: the warm pass pays one cache-line
// touch for the generation check; the in-window pass pays the lookup plus a
// block copy of the prepared bytes — no kernel-structure walk.
SimDuration HitCost(const CostModel& cost, SerializeMode mode, size_t bytes) {
  if (mode == SerializeMode::kWarmCache) {
    return cost.cacheline_miss;
  }
  return cost.serialize_cache_lookup + cost.MemCopy(bytes);
}

// Charges one freshly built process record (`size` bytes at `bytes`, laid
// out as `layout`) against the process's cached record, then refreshes that
// record. An unchanged process is one lookup, like any other entity. A
// changed one reuses, at the pass's hit cost, each sub-record whose counter
// still matches and whose bytes confirm it; once the map's generation
// moved, the map is reused entry by entry the same way. The rest pay their
// fresh gather plus one marshal of their bytes, so with nothing reusable
// the charge is exactly the whole record's fresh charge.
void ChargeProcess(SimContext* sim, SerializeCache* cache, SerializeMode mode,
                   const Process* proc, const uint8_t* bytes, size_t size,
                   const ProcessLayout& layout, SimDuration core_fresh) {
  const CostModel& cost = sim->cost;
  const EntityCounters counters = CountersFor(mode);
  const uint64_t proc_gen = proc->mutation_gen;
  const uint64_t fds_gen = proc->fds().generation();
  const uint64_t vm_gen = proc->vm().generation();
  auto [it, inserted] = cache->processes.try_emplace(proc->pid());
  SerializeCache::ProcessRecord& rec = it->second;
  rec.pass = cache->pass;
  auto same = [&](SerializeCache::Span now, SerializeCache::Span cached) {
    return now.size() == cached.size() &&
           std::memcmp(bytes + now.begin, rec.bytes.data() + cached.begin, now.size()) == 0;
  };
  const bool known = !inserted;
  if (known && rec.proc_gen == proc_gen && rec.fds_gen == fds_gen && rec.vm_gen == vm_gen &&
      same({0, size}, {0, rec.bytes.size()})) {
    sim->clock.Advance(HitCost(cost, mode, size));
    sim->metrics.counter(counters.hits).Add();
    return;
  }

  SimDuration reused = 0;
  SimDuration gathered = 0;
  uint64_t missed_bytes = 0;
  uint64_t sub_hits = 0;
  uint64_t sub_misses = 0;
  bool stale = false;
  // One sub-record: reused when its counter matches and its bytes confirm
  // it; a counter match with differing bytes is a missed bump (stale).
  auto sub = [&](bool gen_match, SerializeCache::Span now, SerializeCache::Span cached,
                 SimDuration fresh_cost) {
    if (gen_match && same(now, cached)) {
      reused += HitCost(cost, mode, now.size());
      sub_hits++;
      return;
    }
    stale = stale || gen_match;
    gathered += fresh_cost;
    missed_bytes += now.size();
    sub_misses++;
  };
  const ProcessLayout& cached = rec.layout;
  sub(known && rec.proc_gen == proc_gen, layout.core, cached.core, core_fresh);
  sub(known && rec.fds_gen == fds_gen, layout.fds, cached.fds, 0);
  sub(known && rec.proc_gen == proc_gen, layout.aio, cached.aio, 0);
  if (known && rec.vm_gen == vm_gen && same(layout.map, cached.map)) {
    reused += HitCost(cost, mode, layout.map.size());
    sub_hits++;
  } else {
    stale = stale || (known && rec.vm_gen == vm_gen);
    missed_bytes += sizeof(uint64_t);  // the entry count
    // Both lists are in address order: walk the cached one alongside.
    size_t c = 0;
    for (const SerializeCache::MapEntrySpan& e : layout.entries) {
      while (c < cached.entries.size() && cached.entries[c].start < e.start) {
        c++;
      }
      const bool gen_match = c < cached.entries.size() && cached.entries[c].start == e.start &&
                             cached.entries[c].gen == e.gen;
      sub(gen_match, e.bytes, gen_match ? cached.entries[c].bytes : SerializeCache::Span{},
          GatherCost(cost, kMapEntryChases));
    }
  }
  sim->clock.Advance(reused + gathered + cost.Serialize(missed_bytes));
  sim->metrics.counter(stale ? counters.stale : counters.misses).Add();
  sim->metrics.counter("ckpt.serialize_subrecord_hits").Add(sub_hits);
  sim->metrics.counter("ckpt.serialize_subrecord_misses").Add(sub_misses);

  rec.proc_gen = proc_gen;
  rec.fds_gen = fds_gen;
  rec.vm_gen = vm_gen;
  rec.bytes.assign(bytes, bytes + size);
  rec.layout = layout;  // reuses the record's entry-span capacity
}

}  // namespace

Result<std::vector<uint8_t>> SerializeOsState(SimContext* sim, const ConsistencyGroup& group,
                                              uint64_t epoch, Oid namespace_oid,
                                              const EnsureOidFn& ensure_oid,
                                              SerializeStats* stats, SerializeCache* cache,
                                              SerializeMode mode) {
  BinaryWriter w;
  w.PutU32(kManifestMagic);
  w.PutU32(kManifestVersion);
  w.PutString(group.name());
  w.PutU64(epoch);
  w.PutU64(namespace_oid.value);

  // Entity records are always built fresh (the simulator's own CPU work is
  // free), in place in the manifest; the cache decides only what simulated
  // time each record costs. A cached blob that byte-matches the fresh record
  // proves the entity was unchanged, so the emitted manifest is identical in
  // every mode. `emit` charges the record written since `begin`.
  uint64_t entity_bytes = 0;
  const EntityCounters counters = CountersFor(mode);
  auto emit = [&](uint8_t kind, uint64_t id, uint64_t gen, size_t begin,
                  SimDuration fresh_cost) {
    const size_t size = w.size() - begin;
    entity_bytes += size;
    if (cache == nullptr) {
      sim->clock.Advance(fresh_cost);
      return;
    }
    const uint8_t* bytes = w.data().data() + begin;
    auto [it, inserted] = cache->entries.try_emplace(std::make_pair(kind, id));
    SerializeCache::Entry& entry = it->second;
    entry.pass = cache->pass;
    const bool gen_match = !inserted && entry.gen == gen;
    if (gen_match && entry.bytes.size() == size &&
        std::memcmp(entry.bytes.data(), bytes, size) == 0) {
      sim->clock.Advance(HitCost(sim->cost, mode, size));
      sim->metrics.counter(counters.hits).Add();
      return;
    }
    sim->clock.Advance(fresh_cost + sim->cost.Serialize(size));
    // A generation match with differing bytes means a mutation path missed
    // its generation bump: recharged fresh, flagged stale.
    sim->metrics.counter(gen_match ? counters.stale : counters.misses).Add();
    entry.gen = gen;
    entry.bytes.assign(bytes, bytes + size);
  };

  // --- Gather --------------------------------------------------------------
  Gathered g;
  std::vector<const Process*> persisted_procs;
  for (const Process* proc : group.processes) {
    if (proc->ephemeral) {
      continue;
    }
    persisted_procs.push_back(proc);
    for (const auto& slot : proc->fds().slots()) {
      if (slot.desc != nullptr) {
        GatherDescription(slot.desc, &g);
      }
    }
    for (const auto& [start, entry] : proc->vm().entries()) {
      if (entry.object->type() == VmObjectType::kAnonymous) {
        GatherMemoryChain(entry.object, &g);
      }
    }
  }
  // Shared memory reachable through descriptors contributes its VM chain
  // even when currently unmapped.
  for (FileObject* obj : g.objects) {
    if (obj->type() == FileType::kShm) {
      auto* shm = static_cast<SharedMemory*>(obj);
      if (shm->object != nullptr) {
        GatherMemoryChain(shm->object, &g);
      }
    }
  }

  // --- Memory objects --------------------------------------------------------
  w.PutU64(g.memory.size());
  for (const auto& obj : g.memory) {
    Oid oid = ensure_oid(obj.get());
    w.PutU64(oid.value);
    w.PutU64(obj->size());
  }
  if (stats != nullptr) {
    stats->memory_objects = g.memory.size();
  }

  // --- File objects ----------------------------------------------------------
  w.PutU64(g.objects.size());
  for (FileObject* obj : g.objects) {
    const size_t begin = w.size();
    SimDuration fresh = SerializeFileObject(sim->cost, &w, obj, g.object_kids, ensure_oid);
    emit(kEntityFileObject, obj->kernel_id(), obj->generation(), begin, fresh);
  }

  // --- Open-file entries -------------------------------------------------------
  w.PutU64(g.descriptions.size());
  for (FileDescription* desc : g.descriptions) {
    const size_t begin = w.size();
    SimDuration fresh = SerializeDescription(sim->cost, &w, desc);
    emit(kEntityDescription, desc->kernel_id, desc->generation, begin, fresh);
  }

  // --- Processes ---------------------------------------------------------------
  // Each record is built in place in the manifest; its cached sub-records
  // decide what it costs.
  w.PutU64(persisted_procs.size());
  ProcessLayout layout;
  for (const Process* proc : persisted_procs) {
    const size_t begin = w.size();
    SimDuration core_fresh = 0;
    SimDuration fresh =
        SerializeProcess(sim->cost, &w, proc, ensure_oid, stats, &layout, &core_fresh);
    const size_t size = w.size() - begin;
    entity_bytes += size;
    if (cache == nullptr) {
      sim->clock.Advance(fresh);
    } else {
      ChargeProcess(sim, cache, mode, proc, w.data().data() + begin, size, layout, core_fresh);
    }
  }

  if (stats != nullptr) {
    stats->file_objects = g.objects.size();
    stats->descriptions = g.descriptions.size();
    stats->bytes = w.size();
  }
  // Final marshal: a cacheless pass pays for the whole manifest (entities
  // were charged gather-only inline); cached modes already paid per-entity
  // marshal, so only the glue bytes (header, section counts, memory table)
  // remain.
  if (cache == nullptr) {
    sim->clock.Advance(sim->cost.Serialize(w.size()));
  } else {
    sim->clock.Advance(sim->cost.Serialize(w.size() - entity_bytes));
  }
  return w.Take();
}

namespace {

// The manifest header: magic, version, group name, epoch and namespace oid.
// The one place it is parsed; `r` is left at the memory-object section.
Result<RestoredGroup> ReadManifestHeader(BinaryReader* r) {
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r->U32());
  AURORA_ASSIGN_OR_RETURN(uint32_t version, r->U32());
  if (magic != kManifestMagic || version != kManifestVersion) {
    return Status::Error(Errc::kCorrupt, "bad manifest header");
  }
  RestoredGroup out;
  AURORA_ASSIGN_OR_RETURN(out.name, r->String());
  AURORA_ASSIGN_OR_RETURN(out.epoch, r->U64());
  AURORA_ASSIGN_OR_RETURN(out.namespace_oid.value, r->U64());
  return out;
}

}  // namespace

Result<RestoredGroup> PeekManifest(const std::vector<uint8_t>& manifest) {
  BinaryReader r(manifest);
  return ReadManifestHeader(&r);
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> ManifestMemoryObjects(
    const std::vector<uint8_t>& manifest) {
  BinaryReader r(manifest);
  AURORA_RETURN_IF_ERROR(ReadManifestHeader(&r).status());
  AURORA_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  if (count > r.Remaining() / 16) {  // each entry is a u64 oid and a u64 size
    return Status::Error(Errc::kCorrupt, "memory-object count overruns the manifest");
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t oid, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t size, r.U64());
    out.emplace_back(oid, size);
  }
  return out;
}

Result<RestoredGroup> RestoreOsState(SimContext* sim, Kernel* kernel, AuroraFs* fs,
                                     const std::vector<uint8_t>& manifest,
                                     const MemoryResolverFn& resolve) {
  BinaryReader r(manifest);
  AURORA_ASSIGN_OR_RETURN(RestoredGroup out, ReadManifestHeader(&r));

  // A mid-restore failure (truncated manifest, resolver error, mapping
  // conflict) must not leak half-built state: every process created below
  // lands in the kernel's table immediately, adopted shm objects land in the
  // global namespaces, and restored vnodes take hidden references. The guard
  // rolls all of that back unless the restore runs to completion.
  struct RestoreGuard {
    Kernel* kernel;
    std::vector<Process*> procs;
    std::vector<const SharedMemory*> shms;
    std::vector<Vnode*> vnode_refs;
    bool armed = true;
    ~RestoreGuard() {
      if (!armed) {
        return;
      }
      for (Process* p : procs) {
        kernel->DestroyProcess(p);
      }
      for (const SharedMemory* s : shms) {
        kernel->RemoveShm(s);
      }
      for (Vnode* v : vnode_refs) {
        v->DropHiddenRef();
      }
    }
  } guard{kernel};

  // --- Memory objects ----------------------------------------------------------
  std::unordered_map<uint64_t, uint64_t> memory_sizes;
  AURORA_ASSIGN_OR_RETURN(uint64_t nmem, r.U64());
  for (uint64_t i = 0; i < nmem; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t oid, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t size, r.U64());
    memory_sizes[oid] = size;
  }
  std::unordered_map<uint64_t, ResolvedMemory> memory_cache;
  auto resolve_cached = [&](uint64_t oid) -> Result<ResolvedMemory> {
    auto it = memory_cache.find(oid);
    if (it != memory_cache.end()) {
      return it->second;
    }
    uint64_t size = memory_sizes.count(oid) > 0 ? memory_sizes[oid] : 0;
    AURORA_ASSIGN_OR_RETURN(ResolvedMemory rm, resolve(Oid{oid}, size));
    rm.object->set_sls_oid(oid);
    memory_cache[oid] = rm;
    return rm;
  };

  // --- File objects -------------------------------------------------------------
  struct PendingControl {
    Socket* socket;
    size_t segment;
    std::vector<uint64_t> desc_kids;
    uint64_t cred_pid;
  };
  std::unordered_map<uint64_t, std::shared_ptr<FileObject>> objects;
  std::unordered_map<uint64_t, uint64_t> socket_peers;  // kid -> peer kid
  std::vector<PendingControl> pending_controls;

  AURORA_ASSIGN_OR_RETURN(uint64_t nobjects, r.U64());
  for (uint64_t i = 0; i < nobjects; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t kid, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint8_t type_raw, r.U8());
    auto type = static_cast<FileType>(type_raw);
    std::shared_ptr<FileObject> obj;
    switch (type) {
      case FileType::kVnode: {
        AURORA_ASSIGN_OR_RETURN(uint64_t ino, r.U64());
        AURORA_ASSIGN_OR_RETURN(uint64_t size, r.U64());
        AURORA_ASSIGN_OR_RETURN(uint32_t nlink, r.U32());
        std::shared_ptr<Vnode> vn;
        auto found = fs->LookupByIno(ino);
        if (found.ok()) {
          vn = *found;
        } else {
          // Anonymous file: no namespace entry survived, but the hidden
          // reference count kept its data object alive in the store.
          AURORA_ASSIGN_OR_RETURN(vn, fs->RegisterAnonymousIno(ino));
        }
        vn->set_size(std::max(vn->size(), size));
        vn->set_nlink(nlink);
        vn->AddHiddenRef();
        guard.vnode_refs.push_back(vn.get());
        sim->clock.Advance(sim->cost.small_alloc + 26 * sim->cost.cacheline_miss);
        obj = vn;
        break;
      }
      case FileType::kPipe: {
        auto pipe = std::make_shared<Pipe>();
        AURORA_ASSIGN_OR_RETURN(pipe->read_open, r.Bool());
        AURORA_ASSIGN_OR_RETURN(pipe->write_open, r.Bool());
        AURORA_ASSIGN_OR_RETURN(std::vector<uint8_t> buf, r.Bytes());
        pipe->buffer.assign(buf.begin(), buf.end());
        sim->clock.Advance(sim->cost.small_alloc * 2 + 32 * sim->cost.cacheline_miss +
                           sim->cost.MemCopy(buf.size()));
        obj = pipe;
        break;
      }
      case FileType::kSocket: {
        AURORA_ASSIGN_OR_RETURN(uint8_t domain, r.U8());
        AURORA_ASSIGN_OR_RETURN(uint8_t proto, r.U8());
        auto sock = std::make_shared<Socket>(static_cast<SocketDomain>(domain),
                                             static_cast<SocketProto>(proto));
        AURORA_ASSIGN_OR_RETURN(uint8_t state, r.U8());
        sock->state = static_cast<SocketState>(state);
        AURORA_ASSIGN_OR_RETURN(sock->local, ReadSockAddr(&r));
        AURORA_ASSIGN_OR_RETURN(sock->peer_addr, ReadSockAddr(&r));
        AURORA_ASSIGN_OR_RETURN(sock->snd_seq, r.U32());
        AURORA_ASSIGN_OR_RETURN(sock->rcv_seq, r.U32());
        AURORA_ASSIGN_OR_RETURN(int64_t backlog, r.I64());
        sock->backlog = static_cast<int>(backlog);
        AURORA_ASSIGN_OR_RETURN(sock->external_sync_disabled, r.Bool());
        AURORA_ASSIGN_OR_RETURN(sock->peer_shutdown, r.Bool());
        AURORA_ASSIGN_OR_RETURN(uint64_t peer_kid, r.U64());
        if (peer_kid != 0) {
          socket_peers[kid] = peer_kid;
        }
        AURORA_ASSIGN_OR_RETURN(uint64_t nopts, r.U64());
        for (uint64_t k = 0; k < nopts; k++) {
          AURORA_ASSIGN_OR_RETURN(int64_t key, r.I64());
          AURORA_ASSIGN_OR_RETURN(int64_t value, r.I64());
          sock->options[static_cast<int>(key)] = static_cast<int>(value);
        }
        AURORA_ASSIGN_OR_RETURN(uint64_t nsegs, r.U64());
        for (uint64_t s = 0; s < nsegs; s++) {
          SockSegment seg;
          AURORA_ASSIGN_OR_RETURN(seg.data, r.Bytes());
          AURORA_ASSIGN_OR_RETURN(seg.from, ReadSockAddr(&r));
          AURORA_ASSIGN_OR_RETURN(bool has_control, r.Bool());
          if (has_control) {
            PendingControl pc;
            pc.socket = sock.get();
            pc.segment = static_cast<size_t>(s);
            AURORA_ASSIGN_OR_RETURN(uint64_t nfds, r.U64());
            for (uint64_t f = 0; f < nfds; f++) {
              AURORA_ASSIGN_OR_RETURN(uint64_t dk, r.U64());
              pc.desc_kids.push_back(dk);
            }
            AURORA_ASSIGN_OR_RETURN(pc.cred_pid, r.U64());
            pending_controls.push_back(std::move(pc));
            seg.control = ControlMessage{};  // filled in pass 2
          }
          sock->recv_bytes += seg.data.size();
          sock->recv_buf.push_back(std::move(seg));
        }
        sim->clock.Advance(sim->cost.small_alloc * 3 + 44 * sim->cost.cacheline_miss);
        obj = sock;
        break;
      }
      case FileType::kKqueue: {
        auto kq = std::make_shared<Kqueue>();
        AURORA_ASSIGN_OR_RETURN(uint64_t nevents, r.U64());
        for (uint64_t e = 0; e < nevents; e++) {
          KEvent ev;
          AURORA_ASSIGN_OR_RETURN(ev.ident, r.U64());
          AURORA_ASSIGN_OR_RETURN(int64_t filter, r.I64());
          ev.filter = static_cast<int16_t>(filter);
          AURORA_ASSIGN_OR_RETURN(uint64_t flags, r.U64());
          ev.flags = static_cast<uint16_t>(flags);
          AURORA_ASSIGN_OR_RETURN(ev.fflags, r.U32());
          AURORA_ASSIGN_OR_RETURN(ev.data, r.I64());
          AURORA_ASSIGN_OR_RETURN(ev.udata, r.U64());
          kq->Register(ev);
        }
        // Restore is a bulk copy into a fresh table (fast: Table 4).
        sim->clock.Advance(sim->cost.small_alloc +
                           sim->cost.MemCopy(nevents * sizeof(KEvent)));
        obj = kq;
        break;
      }
      case FileType::kPty: {
        auto pty = std::make_shared<Pseudoterminal>();
        AURORA_ASSIGN_OR_RETURN(int64_t index, r.I64());
        pty->index = static_cast<int>(index);
        AURORA_ASSIGN_OR_RETURN(pty->termios_iflag, r.U32());
        AURORA_ASSIGN_OR_RETURN(pty->termios_oflag, r.U32());
        AURORA_ASSIGN_OR_RETURN(pty->termios_cflag, r.U32());
        AURORA_ASSIGN_OR_RETURN(pty->termios_lflag, r.U32());
        AURORA_ASSIGN_OR_RETURN(pty->ws_rows, r.U16());
        AURORA_ASSIGN_OR_RETURN(pty->ws_cols, r.U16());
        AURORA_ASSIGN_OR_RETURN(pty->session_sid, r.U64());
        AURORA_ASSIGN_OR_RETURN(std::vector<uint8_t> in, r.Bytes());
        AURORA_ASSIGN_OR_RETURN(std::vector<uint8_t> outbuf, r.Bytes());
        pty->input.assign(in.begin(), in.end());
        pty->output.assign(outbuf.begin(), outbuf.end());
        // Recreating the virtual device takes devfs locks (Table 4's slow
        // pty restore).
        sim->clock.Advance(kDevfsLockCost + sim->cost.small_alloc * 2);
        obj = pty;
        break;
      }
      case FileType::kShm: {
        AURORA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
        auto shm = std::make_shared<SharedMemory>(static_cast<SharedMemory::Kind>(kind));
        AURORA_ASSIGN_OR_RETURN(shm->name, r.String());
        AURORA_ASSIGN_OR_RETURN(int64_t key, r.I64());
        shm->key = static_cast<int32_t>(key);
        AURORA_ASSIGN_OR_RETURN(int64_t shmid, r.I64());
        shm->shmid = static_cast<int32_t>(shmid);
        AURORA_ASSIGN_OR_RETURN(shm->mode, r.U32());
        AURORA_ASSIGN_OR_RETURN(shm->size, r.U64());
        AURORA_ASSIGN_OR_RETURN(uint64_t vm_oid, r.U64());
        if (vm_oid != 0) {
          AURORA_ASSIGN_OR_RETURN(ResolvedMemory rm, resolve_cached(vm_oid));
          shm->object = rm.object;
        }
        kernel->AdoptShm(shm);
        guard.shms.push_back(shm.get());
        sim->clock.Advance(sim->cost.small_alloc * 3 + 30 * sim->cost.cacheline_miss);
        if (shm->kind() == SharedMemory::Kind::kPosix) {
          // shm_open re-registers the name in the POSIX shm namespace.
          sim->clock.Advance(1200);
        }
        obj = shm;
        break;
      }
      case FileType::kDevice: {
        auto dev = std::make_shared<DeviceFile>();
        AURORA_ASSIGN_OR_RETURN(dev->devname, r.String());
        AURORA_ASSIGN_OR_RETURN(dev->whitelisted, r.Bool());
        if (!dev->whitelisted) {
          return Status::Error(Errc::kNotSupported,
                               "checkpoint holds a non-whitelisted device: " + dev->devname);
        }
        if (dev->devname == "hpet0") {
          dev->device_memory = VmObject::CreateDevice(kPageSize);
        }
        sim->clock.Advance(sim->cost.small_alloc);
        obj = dev;
        break;
      }
      default:
        return Status::Error(Errc::kCorrupt, "unknown file object type");
    }
    objects[kid] = std::move(obj);
  }

  // --- Open-file entries ----------------------------------------------------------
  std::unordered_map<uint64_t, std::shared_ptr<FileDescription>> descriptions;
  AURORA_ASSIGN_OR_RETURN(uint64_t ndescs, r.U64());
  for (uint64_t i = 0; i < ndescs; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t kid, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t object_kid, r.U64());
    auto desc = std::make_shared<FileDescription>();
    AURORA_ASSIGN_OR_RETURN(desc->offset, r.U64());
    AURORA_ASSIGN_OR_RETURN(int64_t flags, r.I64());
    desc->open_flags = static_cast<int>(flags);
    if (object_kid != 0) {
      auto it = objects.find(object_kid);
      if (it == objects.end()) {
        return Status::Error(Errc::kCorrupt, "description references unknown object");
      }
      desc->object = it->second;
    }
    descriptions[kid] = std::move(desc);
    sim->clock.Advance(sim->cost.small_alloc);
  }

  // Pass 2: control messages and socket peers.
  for (const PendingControl& pc : pending_controls) {
    ControlMessage cm;
    cm.cred_pid = pc.cred_pid;
    for (uint64_t dk : pc.desc_kids) {
      auto it = descriptions.find(dk);
      if (it == descriptions.end()) {
        return Status::Error(Errc::kCorrupt, "control message references unknown descriptor");
      }
      cm.fds.push_back(it->second);
    }
    pc.socket->recv_buf[pc.segment].control = std::move(cm);
  }
  for (const auto& [kid, peer_kid] : socket_peers) {
    // A later record may reuse a socket's kid, and a damaged peer kid may
    // name any object: link only two sockets.
    auto a = objects.find(kid);
    auto b = objects.find(peer_kid);
    if (a != objects.end() && b != objects.end() && a->second->type() == FileType::kSocket &&
        b->second->type() == FileType::kSocket) {
      auto sa = std::static_pointer_cast<Socket>(a->second);
      auto sb = std::static_pointer_cast<Socket>(b->second);
      sa->peer = sb;
    }
  }

  // --- Processes ---------------------------------------------------------------------
  struct ParentFixup {
    Process* proc;
    uint64_t parent_local_pid;
  };
  std::vector<ParentFixup> fixups;
  std::vector<std::pair<Process*, uint64_t>> sigchld_posts;

  AURORA_ASSIGN_OR_RETURN(uint64_t nprocs, r.U64());
  for (uint64_t i = 0; i < nprocs; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t local_pid, r.U64());
    AURORA_ASSIGN_OR_RETURN(std::string name, r.String());
    AURORA_ASSIGN_OR_RETURN(Process * proc, kernel->CreateProcessForRestore(name, local_pid));
    guard.procs.push_back(proc);
    AURORA_ASSIGN_OR_RETURN(proc->pgid, r.U64());
    AURORA_ASSIGN_OR_RETURN(proc->sid, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t parent_local, r.U64());
    if (parent_local != 0) {
      fixups.push_back({proc, parent_local});
    }
    AURORA_ASSIGN_OR_RETURN(proc->zombie, r.Bool());
    AURORA_ASSIGN_OR_RETURN(int64_t exit_status, r.I64());
    proc->exit_status = static_cast<int>(exit_status);
    AURORA_ASSIGN_OR_RETURN(uint64_t ephemeral_children, r.U64());
    if (ephemeral_children > Kernel::kMaxPid) {
      return Status::Error(Errc::kCorrupt, "ephemeral-child count exceeds the pid space");
    }
    if (ephemeral_children > 0) {
      sigchld_posts.push_back({proc, ephemeral_children});
    }

    for (SigAction& sa : proc->sigactions) {
      AURORA_ASSIGN_OR_RETURN(sa.handler, r.U64());
      AURORA_ASSIGN_OR_RETURN(sa.mask, r.U64());
      AURORA_ASSIGN_OR_RETURN(sa.flags, r.U32());
    }
    AURORA_ASSIGN_OR_RETURN(proc->pending_signals, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t nqueued, r.U64());
    for (uint64_t q = 0; q < nqueued; q++) {
      AURORA_ASSIGN_OR_RETURN(int64_t signo, r.I64());
      proc->signal_queue.push_back(static_cast<int>(signo));
    }

    AURORA_ASSIGN_OR_RETURN(uint64_t nthreads, r.U64());
    for (uint64_t t = 0; t < nthreads; t++) {
      Thread& thread = proc->AddThread();
      AURORA_ASSIGN_OR_RETURN(uint64_t local_tid, r.U64());
      thread.set_local_tid(local_tid);
      for (uint64_t& reg : thread.cpu.gpr) {
        AURORA_ASSIGN_OR_RETURN(reg, r.U64());
      }
      AURORA_ASSIGN_OR_RETURN(thread.cpu.rip, r.U64());
      AURORA_ASSIGN_OR_RETURN(thread.cpu.rsp, r.U64());
      AURORA_ASSIGN_OR_RETURN(thread.cpu.rflags, r.U64());
      AURORA_RETURN_IF_ERROR(r.Raw(thread.cpu.fpu.data(), thread.cpu.fpu.size()));
      AURORA_ASSIGN_OR_RETURN(thread.sigmask, r.U64());
      AURORA_ASSIGN_OR_RETURN(thread.pending_signals, r.U64());
      AURORA_ASSIGN_OR_RETURN(int64_t priority, r.I64());
      thread.priority = static_cast<int>(priority);
      AURORA_ASSIGN_OR_RETURN(uint8_t state, r.U8());
      thread.state = static_cast<ThreadState>(state);
      sim->clock.Advance(sim->cost.small_alloc + sim->cost.MemCopy(sizeof(CpuState)));
    }

    AURORA_ASSIGN_OR_RETURN(uint64_t nfds, r.U64());
    for (uint64_t f = 0; f < nfds; f++) {
      AURORA_ASSIGN_OR_RETURN(int64_t slot, r.I64());
      AURORA_ASSIGN_OR_RETURN(uint64_t desc_kid, r.U64());
      AURORA_ASSIGN_OR_RETURN(bool cloexec, r.Bool());
      auto it = descriptions.find(desc_kid);
      if (it == descriptions.end()) {
        return Status::Error(Errc::kCorrupt, "fd references unknown descriptor");
      }
      AURORA_RETURN_IF_ERROR(
          proc->fds().InstallAt(static_cast<int>(slot), it->second, cloexec));
    }

    AURORA_ASSIGN_OR_RETURN(uint64_t naios, r.U64());
    for (uint64_t a = 0; a < naios; a++) {
      AioRequest aio;
      AURORA_ASSIGN_OR_RETURN(aio.id, r.U64());
      AURORA_ASSIGN_OR_RETURN(int64_t fd, r.I64());
      aio.fd = static_cast<int>(fd);
      aio.op = AioRequest::Op::kRead;
      aio.state = AioRequest::State::kInFlight;  // reissued after restore
      AURORA_ASSIGN_OR_RETURN(aio.offset, r.U64());
      AURORA_ASSIGN_OR_RETURN(aio.length, r.U64());
      proc->aios.push_back(aio);
    }

    AURORA_ASSIGN_OR_RETURN(uint64_t nentries, r.U64());
    for (uint64_t e = 0; e < nentries; e++) {
      uint64_t start;
      uint64_t end;
      AURORA_ASSIGN_OR_RETURN(start, r.U64());
      AURORA_ASSIGN_OR_RETURN(end, r.U64());
      AURORA_ASSIGN_OR_RETURN(int64_t prot, r.I64());
      AURORA_ASSIGN_OR_RETURN(uint64_t offset, r.U64());
      AURORA_ASSIGN_OR_RETURN(bool cow, r.Bool());
      AURORA_ASSIGN_OR_RETURN(bool exclude, r.Bool());
      AURORA_ASSIGN_OR_RETURN(int64_t hint, r.I64());
      AURORA_ASSIGN_OR_RETURN(uint8_t kind_raw, r.U8());
      auto kind = static_cast<EntryKind>(kind_raw);
      std::shared_ptr<VmObject> top;
      if (kind == EntryKind::kDevice) {
        AURORA_ASSIGN_OR_RETURN(std::string devname, r.String());
        // Inject the *current* platform's vDSO/device pages (paper 5.3).
        top = kernel->vdso();
      } else {
        AURORA_ASSIGN_OR_RETURN(uint64_t chain_len, r.U64());
        if (chain_len > r.Remaining() / sizeof(uint64_t)) {
          return Status::Error(Errc::kCorrupt, "shadow-chain length overruns the manifest");
        }
        std::vector<uint64_t> chain(chain_len);
        for (uint64_t c = 0; c < chain_len; c++) {
          AURORA_ASSIGN_OR_RETURN(chain[c], r.U64());
        }
        AURORA_ASSIGN_OR_RETURN(uint64_t vnode_ino, r.U64());
        std::shared_ptr<VmObject> below;  // built bottom-up
        if (vnode_ino != 0) {
          std::shared_ptr<Vnode> vn;
          auto found = fs->LookupByIno(vnode_ino);
          if (found.ok()) {
            vn = *found;
          } else {
            AURORA_ASSIGN_OR_RETURN(vn, fs->RegisterAnonymousIno(vnode_ino));
          }
          below = vn->MakeVmObject();
        }
        for (size_t c = chain.size(); c-- > 0;) {
          AURORA_ASSIGN_OR_RETURN(ResolvedMemory rm, resolve_cached(chain[c]));
          if (below != nullptr && !rm.chain_complete && rm.object->parent() == nullptr) {
            // A damaged manifest can name one object twice, in one chain or
            // across two; linking it below itself would make a cycle that a
            // fault's chain walk never leaves.
            for (const VmObject* o = below.get(); o != nullptr; o = o->parent()) {
              if (o == rm.object.get()) {
                return Status::Error(Errc::kCorrupt, "shadow chain links an object below itself");
              }
            }
            rm.object->ReplaceParent(below);
          }
          below = rm.object;
        }
        top = below;
        if (top == nullptr) {
          top = VmObject::CreateAnonymous(end - start);
        }
      }
      int mapped_prot = static_cast<int>(prot);
      if (kind == EntryKind::kDevice) {
        mapped_prot &= ~kProtWrite;
      }
      AURORA_ASSIGN_OR_RETURN(uint64_t mapped,
                              proc->vm().Map(start, end - start, mapped_prot, top, offset, cow));
      if (mapped != start) {
        return Status::Error(Errc::kBadState, "restored mapping landed at the wrong address");
      }
      VmMapEntry* entry = proc->vm().FindEntry(start);
      entry->exclude_from_checkpoint = exclude;
      entry->madvise_hint = static_cast<int>(hint);
    }

    out.processes.push_back(proc);
  }

  // Parent/child links by checkpoint-time local pid.
  for (const ParentFixup& fix : fixups) {
    for (Process* candidate : out.processes) {
      if (candidate->local_pid() == fix.parent_local_pid) {
        fix.proc->parent = candidate;
        candidate->children.push_back(fix.proc);
        break;
      }
    }
  }
  // Ephemeral children were dropped: their parents see SIGCHLD, as if the
  // worker had exited unexpectedly (paper section 3).
  for (auto& [proc, count] : sigchld_posts) {
    for (uint64_t c = 0; c < count; c++) {
      proc->PostSignal(kSigChld);
    }
  }
  guard.armed = false;
  return out;
}

}  // namespace aurora
