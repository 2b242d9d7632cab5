#include "src/core/serialize.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>
#include <tuple>
#include <type_traits>
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
  std::vector<std::pair<uint64_t, uint64_t>> memory;  // distinct chain links' oids and sizes
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

void GatherMemoryChain(const std::shared_ptr<VmObject>& top, const EnsureOidFn& ensure_oid,
                       Gathered* out) {
  std::shared_ptr<VmObject> obj = top;
  while (obj != nullptr && obj->type() == VmObjectType::kAnonymous) {
    if (out->memory_ids.insert(obj->id()).second) {
      out->memory.emplace_back(ensure_oid(obj.get()).value, obj->size());
    }
    obj = obj->parent_ref();
  }
}

SimDuration GatherCost(const CostModel& cost, int chases) {
  return cost.lock_acquire + cost.cacheline_miss * static_cast<SimDuration>(chases);
}

// --- The two adapters ----------------------------------------------------------------
//
// Every manifest record is declared once, as a field list templated on its
// adapter: ManifestWriter runs the list to encode the record, and
// ManifestReader runs the same list to decode it. Each field is named once,
// with its wire width, which may be wider than the field (an int travels as
// an i64). Only the adapters touch BinaryWriter and BinaryReader.

class ManifestWriter {
 public:
  explicit ManifestWriter(BinaryWriter* w) : w_(w) {}

  void U8(const auto& v) { w_->PutU8(static_cast<uint8_t>(v)); }
  void U16(const auto& v) { w_->PutU16(static_cast<uint16_t>(v)); }
  void U32(const auto& v) { w_->PutU32(static_cast<uint32_t>(v)); }
  void U64(const auto& v) { w_->PutU64(static_cast<uint64_t>(v)); }
  void I64(const auto& v) { w_->PutI64(static_cast<int64_t>(v)); }
  void Bool(bool v) { w_->PutBool(v); }
  void Bytes(const std::string& s) { w_->PutString(s); }
  void Bytes(const std::vector<uint8_t>& b) { w_->PutBytes(b.data(), b.size()); }
  void Bytes(const std::deque<uint8_t>& b) { Bytes(std::vector<uint8_t>(b.begin(), b.end())); }
  void Raw(const auto& array) { w_->PutRaw(array.data(), array.size()); }
  // A count of the elements that follow.
  void Count(uint64_t n) { w_->PutU64(n); }
  // A counted list: `each` encodes every element of `c`.
  void List(const auto& c, size_t /*min_bytes*/, auto&& each) {
    Count(c.size());
    for (const auto& e : c) {
      each(e);
    }
  }
  size_t size() const { return w_->size(); }

 private:
  BinaryWriter* w_;
};

// Total: the first error sticks and every later field decodes as zero or
// empty, so a list runs to its end without a check per field; a restore
// checks ok() before each side effect.
class ManifestReader {
 public:
  explicit ManifestReader(const std::vector<uint8_t>& bytes) : r_(bytes) {}

  void U8(auto& v) { Set(v, Fixed(&BinaryReader::U8)); }
  void U16(auto& v) { Set(v, Fixed(&BinaryReader::U16)); }
  void U32(auto& v) { Set(v, Fixed(&BinaryReader::U32)); }
  void U64(auto& v) { Set(v, Fixed(&BinaryReader::U64)); }
  void I64(auto& v) { Set(v, Fixed(&BinaryReader::I64)); }
  void Bool(bool& v) { v = Fixed(&BinaryReader::Bool); }
  void Bytes(std::vector<uint8_t>& b) { b = Fixed(&BinaryReader::Bytes); }
  void Bytes(auto& c) {
    std::vector<uint8_t> bytes = Fixed(&BinaryReader::Bytes);
    c.assign(bytes.begin(), bytes.end());
  }
  void Raw(auto& array) {
    if (ok()) {
      status_ = r_.Raw(array.data(), array.size());
    }
  }
  // A count, bounded by the bytes left: each element takes at least
  // `min_bytes` of them, so no count sizes work the manifest does not back.
  uint64_t Count(size_t min_bytes) {
    const uint64_t n = Fixed(&BinaryReader::U64);
    if (n > r_.Remaining() / min_bytes) {
      status_ = Status::Error(Errc::kCorrupt, "count overruns the manifest");
      return 0;
    }
    return n;
  }
  // A counted list: `each` decodes every element appended to `c` (a map's
  // elements decode as a key/value pair, then insert).
  template <typename C>
  void List(C& c, size_t min_bytes, auto&& each) {
    for (uint64_t n = Count(min_bytes); n > 0 && ok(); n--) {
      if constexpr (requires { c.emplace_back(); }) {
        each(c.emplace_back());
      } else {
        std::pair<typename C::key_type, typename C::mapped_type> kv{};
        each(kv);
        c[kv.first] = kv.second;
      }
    }
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  template <typename T>
  static void Set(T& field, auto wire) {
    field = static_cast<T>(wire);
  }
  template <typename T>
  T Fixed(Result<T> (BinaryReader::*read)()) {
    if (!ok()) {
      return T{};
    }
    Result<T> v = (r_.*read)();
    if (!v.ok()) {
      status_ = v.status();
      return T{};
    }
    return std::move(v).value();
  }

  BinaryReader r_;
  Status status_;
};

// --- Records -------------------------------------------------------------------------
//
// One field list per record, in wire order. A list takes the object it
// encodes plus each field the object does not hold as a plain member: an
// accessor, a constructor argument or a value derived at write time (a
// kernel id, an oid, a count). The writer passes those values in; the reader
// passes locals and applies them after the list. Adding a field is one line
// in its list plus a kManifestVersion bump. A count's second argument is the
// fewest bytes one of its elements takes.

void HeaderFields(auto& io, auto&& magic, auto&& version, auto&& name, auto&& epoch,
                  auto&& namespace_oid) {
  io.U32(magic);
  io.U32(version);
  io.Bytes(name);
  io.U64(epoch);
  io.U64(namespace_oid);
}

// Every distinct anonymous chain link: its oid and size.
using MemoryTable = std::vector<std::pair<uint64_t, uint64_t>>;

void MemoryTableFields(auto& io, auto& table) {
  io.List(table, 2 * 8, [&](auto& e) {
    io.U64(e.first);
    io.U64(e.second);
  });
}

// A file object's kernel id and type, then its type's list.
void ObjectHead(auto& io, auto&& kid, auto&& type) {
  io.U64(kid);
  io.U8(type);
}
constexpr size_t kObjectBytes = 8 + 1 + 8;  // the shortest list is a kqueue's

// An open-file entry; `object_kid` is 0 for none.
void DescriptionFields(auto& io, auto& desc, auto&& kid, auto&& object_kid) {
  io.U64(kid);
  io.U64(object_kid);
  io.U64(desc.offset);
  io.I64(desc.open_flags);
}
constexpr size_t kDescriptionBytes = 4 * 8;

// A process record is a core (this head, the core fields and the threads),
// the descriptor slots, the AIO reads and the map entries; the serialize
// cache charges each sub-record on its own.
void ProcessHead(auto& io, auto&& local_pid, auto&& name) {
  io.U64(local_pid);
  io.Bytes(name);
}

// `parent_pid` (the parent's local pid, 0 for none) and `ephemeral_children`
// are derived at write time. A restore links the tree once every process
// exists, and posts a SIGCHLD per ephemeral child, as if the worker had
// exited (paper section 3).
void CoreFields(auto& io, auto& proc, auto&& parent_pid, auto&& ephemeral_children) {
  io.U64(proc.pgid);
  io.U64(proc.sid);
  io.U64(parent_pid);
  io.Bool(proc.zombie);
  io.I64(proc.exit_status);
  io.U64(ephemeral_children);
  for (auto& sa : proc.sigactions) {
    io.U64(sa.handler);
    io.U64(sa.mask);
    io.U32(sa.flags);
  }
  io.U64(proc.pending_signals);
  io.List(proc.signal_queue, 8, [&](auto& signo) { io.I64(signo); });
}
// The head, the core fields, and the counts of the signal queue, threads,
// slots, AIO reads and map entries.
constexpr size_t kProcessBytes = 2 * 8 + 3 * 8 + 1 + 2 * 8 + kNumSignals * (8 + 8 + 4) + 6 * 8;

// `state` is where quiesce found the thread: the writer passes resume_state
// and the reader restores it into state.
void ThreadFields(auto& io, auto& t, auto&& local_tid, auto& state) {
  io.U64(local_tid);
  for (auto& reg : t.cpu.gpr) {
    io.U64(reg);
  }
  io.U64(t.cpu.rip);
  io.U64(t.cpu.rsp);
  io.U64(t.cpu.rflags);
  io.Raw(t.cpu.fpu);
  io.U64(t.sigmask);
  io.U64(t.pending_signals);
  io.I64(t.priority);
  io.U8(state);
}
constexpr size_t kThreadBytes = 8 + 16 * 8 + 3 * 8 + 512 + 3 * 8 + 1;

// An open descriptor; empty slots are not written.
void SlotFields(auto& io, auto&& fd, auto&& desc_kid, auto&& cloexec) {
  io.I64(fd);
  io.U64(desc_kid);
  io.Bool(cloexec);
}
constexpr size_t kSlotBytes = 8 + 8 + 1;

// An in-flight AIO read; writes were drained into the checkpoint at quiesce
// and are not written. A restored request is an in-flight read, reissued
// after restore.
void AioFields(auto& io, auto& aio) {
  io.U64(aio.id);
  io.I64(aio.fd);
  io.U64(aio.offset);
  io.U64(aio.length);
}
constexpr size_t kAioBytes = 4 * 8;

// A map entry, then either the device marker (device payloads are
// reinjected at restore; the vDSO marker covers platform-specific pages) or
// the entry's oid chain, top first, and the inode of a file mapping's bottom
// link (0 for an anonymous chain).
void EntryFields(auto& io, auto& entry, auto& kind, auto& chain, auto&& vnode_ino) {
  io.U64(entry.start);
  io.U64(entry.end);
  io.I64(entry.prot);
  io.U64(entry.offset);
  io.Bool(entry.copy_on_write);
  io.Bool(entry.exclude_from_checkpoint);
  io.I64(entry.madvise_hint);
  io.U8(kind);
  if (kind == EntryKind::kDevice) {
    std::string marker = "vdso";
    io.Bytes(marker);
  } else {
    io.List(chain, 8, [&](auto& oid) { io.U64(oid); });
    io.U64(vnode_ino);
  }
}
constexpr size_t kEntryBytes = 4 * 8 + 2 + 8 + 1 + 8;  // the shortest tail: a marker's length

// --- The restore in progress -----------------------------------------------------------
//
// The records decoded so far, the links that resolve once every record is
// in, and the rollback of a restore that fails: every process created lands
// in the kernel's table at once, adopted shm objects land in the global
// namespaces, restored vnodes take hidden references and missing inodes are
// registered, and unless the restore finishes the destructor undoes all of
// it. A registered inode's store object stays: after a reboot it holds a
// checkpointed anonymous file's data, which a retry needs.

using ObjectPtr = std::shared_ptr<FileObject>;

// An in-flight SCM_RIGHTS message, its descriptions named by kernel id.
struct ControlRecord {
  std::vector<uint64_t> desc_kids;
  uint64_t cred_pid = 0;
};

struct Restorer {
  Restorer(SimContext* s, Kernel* k, AuroraFs* f, const MemoryResolverFn& r)
      : sim(s), cost(s->cost), kernel(k), fs(f), resolve(r) {}
  Restorer(const Restorer&) = delete;
  Restorer& operator=(const Restorer&) = delete;
  ~Restorer() {
    if (finished) {
      return;
    }
    for (Process* p : procs) {
      kernel->DestroyProcess(p);
    }
    for (const auto& shm : shms) {
      kernel->RemoveShm(shm.get());
    }
    for (Vnode* vn : vnode_refs) {
      vn->DropHiddenRef();
    }
    for (uint64_t ino : registered_inos) {
      fs->ForgetAnonymousIno(ino);
    }
  }

  Result<ResolvedMemory> Resolve(uint64_t oid) {
    auto it = memory_cache.find(oid);
    if (it != memory_cache.end()) {
      return it->second;
    }
    auto size = memory_sizes.find(oid);
    AURORA_ASSIGN_OR_RETURN(
        ResolvedMemory rm, resolve(Oid{oid}, size != memory_sizes.end() ? size->second : 0));
    rm.object->set_sls_oid(oid);
    memory_cache[oid] = rm;
    return rm;
  }

  // The live vnode for `ino`, or an anonymous one registered for it: no
  // namespace entry survived, but the hidden reference count kept its data
  // object alive in the store. Descriptors and file mappings both bind here.
  Result<std::shared_ptr<Vnode>> BindVnode(uint64_t ino) {
    auto found = fs->LookupByIno(ino);
    if (found.ok()) {
      return *found;
    }
    AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, fs->RegisterAnonymousIno(ino));
    registered_inos.push_back(ino);
    return vn;
  }

  // A file object that decoded cleanly: charged `restore_cost` and kept.
  Result<ObjectPtr> Restored(const ManifestReader& io, ObjectPtr obj, SimDuration restore_cost) {
    AURORA_RETURN_IF_ERROR(io.status());
    sim->clock.Advance(restore_cost);
    return obj;
  }

  SimContext* sim;
  const CostModel& cost;
  Kernel* kernel;
  AuroraFs* fs;
  const MemoryResolverFn& resolve;
  std::unordered_map<uint64_t, uint64_t> memory_sizes;  // by oid
  std::unordered_map<uint64_t, ResolvedMemory> memory_cache;
  uint64_t kid = 0;  // the file object being decoded
  std::unordered_map<uint64_t, ObjectPtr> objects;
  std::unordered_map<uint64_t, std::shared_ptr<FileDescription>> descriptions;
  std::unordered_map<uint64_t, uint64_t> socket_peers;  // kid -> peer kid
  struct PendingControl {
    std::shared_ptr<Socket> socket;  // held: a later record may reuse its kid
    size_t segment;
    ControlRecord record;
  };
  std::vector<PendingControl> pending_controls;
  // Each process, its parent's local pid and its ephemeral-child count.
  std::vector<std::tuple<Process*, uint64_t, uint64_t>> tree;
  // Undone unless the restore finishes.
  std::vector<Process*> procs;
  std::vector<std::shared_ptr<SharedMemory>> shms;
  std::vector<Vnode*> vnode_refs;
  std::vector<uint64_t> registered_inos;
  bool finished = false;
};

// --- File-object codecs ----------------------------------------------------------------
//
// One codec per file type: its field list, and a WriteObject and a
// ReadObject overload, which run the list in one direction each and do what
// only that direction does. WriteObject returns what a fresh gather of the
// object charges (pointer chasing through cold kernel structures, paper
// 9.2); ReadObject charges the restore (Table 4). WithFileType picks the
// codec of a type for both directions.

// What a writer derives a file object's links from.
struct WriteLinks {
  const CostModel& cost;
  const std::set<uint64_t>& object_kids;  // the file objects in this manifest
  const EnsureOidFn& ensure_oid;
};

// Inode reference only: no name-cache or namei work at stop time.
void VnodeFields(auto& io, auto&& ino, auto&& size, auto&& nlink) {
  io.U64(ino);
  io.U64(size);
  io.U32(nlink);
}
SimDuration WriteObject(ManifestWriter& io, const Vnode& vn, const WriteLinks& w) {
  VnodeFields(io, vn.ino(), vn.size(), vn.nlink());
  return GatherCost(w.cost, kVnodeChases);
}
// Binds the live inode, keeping the larger size.
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<Vnode>) {
  uint64_t ino = 0;
  uint64_t size = 0;
  uint32_t nlink = 0;
  VnodeFields(io, ino, size, nlink);
  AURORA_RETURN_IF_ERROR(io.status());
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, rs.BindVnode(ino));
  vn->set_size(std::max(vn->size(), size));
  vn->set_nlink(nlink);
  vn->AddHiddenRef();
  rs.vnode_refs.push_back(vn.get());
  return rs.Restored(io, vn, rs.cost.small_alloc + 26 * rs.cost.cacheline_miss);
}

void PipeFields(auto& io, auto& pipe) {
  io.Bool(pipe.read_open);
  io.Bool(pipe.write_open);
  io.Bytes(pipe.buffer);
}
SimDuration WriteObject(ManifestWriter& io, const Pipe& pipe, const WriteLinks& w) {
  PipeFields(io, pipe);
  return GatherCost(w.cost, kPipeChases) + w.cost.Serialize(pipe.buffer.size());
}
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<Pipe>) {
  auto pipe = std::make_shared<Pipe>();
  PipeFields(io, *pipe);
  return rs.Restored(io, pipe,
                     rs.cost.small_alloc * 2 + 32 * rs.cost.cacheline_miss +
                         rs.cost.MemCopy(pipe->buffer.size()));
}

void SockAddrFields(auto& io, auto& a) {
  io.U32(a.ip);
  io.U16(a.port);
  io.Bytes(a.path);
}
// The constructor's arguments, ahead of the fields.
void SocketHead(auto& io, auto&& domain, auto&& proto) {
  io.U8(domain);
  io.U8(proto);
}
// `peer_kid` is the connected peer's kernel id when the peer is in the
// manifest too (0 otherwise); `control(seg)` is the record of a segment's
// SCM_RIGHTS message. The accept queue of a listening socket is omitted by
// design (clients retransmit the SYN).
void SocketFields(auto& io, auto& sock, uint64_t& peer_kid, auto&& control) {
  io.U8(sock.state);
  SockAddrFields(io, sock.local);
  SockAddrFields(io, sock.peer_addr);
  io.U32(sock.snd_seq);
  io.U32(sock.rcv_seq);
  io.I64(sock.backlog);
  io.Bool(sock.external_sync_disabled);
  io.Bool(sock.peer_shutdown);
  io.U64(peer_kid);
  io.List(sock.options, 2 * 8, [&](auto& opt) {
    io.I64(opt.first);
    io.I64(opt.second);
  });
  io.List(sock.recv_buf, 8 + (4 + 2 + 8) + 1, [&](auto& seg) {
    io.Bytes(seg.data);
    SockAddrFields(io, seg.from);
    bool has_control = seg.control.has_value();
    io.Bool(has_control);
    if (has_control) {
      ControlRecord& record = control(seg);
      io.List(record.desc_kids, 8, [&](auto& kid) { io.U64(kid); });
      io.U64(record.cred_pid);
    }
  });
}
SimDuration WriteObject(ManifestWriter& io, const Socket& sock, const WriteLinks& w) {
  auto peer = sock.peer.lock();
  uint64_t peer_kid =
      peer != nullptr && w.object_kids.count(peer->kernel_id()) > 0 ? peer->kernel_id() : 0;
  ControlRecord record;
  SocketHead(io, sock.domain(), sock.proto());
  SocketFields(io, sock, peer_kid, [&](const SockSegment& seg) -> ControlRecord& {
    record = {{}, seg.control->cred_pid};
    for (const auto& desc : seg.control->fds) {
      record.desc_kids.push_back(desc->kernel_id);
    }
    return record;
  });
  SimDuration fresh = GatherCost(w.cost, kSocketChases);
  for (const SockSegment& seg : sock.recv_buf) {
    fresh += w.cost.Serialize(seg.data.size());
  }
  return fresh;
}
// recv_bytes sums the segments; the peer and the control messages link once
// every description is in.
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<Socket>) {
  SocketDomain domain{};
  SocketProto proto{};
  SocketHead(io, domain, proto);
  auto sock = std::make_shared<Socket>(domain, proto);
  uint64_t peer_kid = 0;
  SocketFields(io, *sock, peer_kid, [&](SockSegment& seg) -> ControlRecord& {
    seg.control = ControlMessage{};
    rs.pending_controls.push_back({sock, sock->recv_buf.size() - 1, {}});
    return rs.pending_controls.back().record;
  });
  for (const SockSegment& seg : sock->recv_buf) {
    sock->recv_bytes += seg.data.size();
  }
  if (peer_kid != 0) {
    rs.socket_peers[rs.kid] = peer_kid;
  }
  return rs.Restored(io, sock, rs.cost.small_alloc * 3 + 44 * rs.cost.cacheline_miss);
}

// KEvent::flags (a u16) travels as a u64.
void KqueueFields(auto& io, auto& kq) {
  io.List(kq.events(), 8 + 8 + 8 + 4 + 8 + 8, [&](auto& ev) {
    io.U64(ev.ident);
    io.I64(ev.filter);
    io.U64(ev.flags);
    io.U32(ev.fflags);
    io.I64(ev.data);
    io.U64(ev.udata);
  });
}
SimDuration WriteObject(ManifestWriter& io, const Kqueue& kq, const WriteLinks& w) {
  KqueueFields(io, kq);
  return GatherCost(w.cost, kKqueueBaseChases) + kKeventCost * kq.events().size();
}
// Restore is a bulk copy into a fresh table (fast: Table 4).
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<Kqueue>) {
  auto kq = std::make_shared<Kqueue>();
  KqueueFields(io, *kq);
  return rs.Restored(io, kq,
                     rs.cost.small_alloc + rs.cost.MemCopy(kq->events().size() * sizeof(KEvent)));
}

void PtyFields(auto& io, auto& pty) {
  io.I64(pty.index);
  io.U32(pty.termios_iflag);
  io.U32(pty.termios_oflag);
  io.U32(pty.termios_cflag);
  io.U32(pty.termios_lflag);
  io.U16(pty.ws_rows);
  io.U16(pty.ws_cols);
  io.U64(pty.session_sid);
  io.Bytes(pty.input);
  io.Bytes(pty.output);
}
SimDuration WriteObject(ManifestWriter& io, const Pseudoterminal& pty, const WriteLinks& w) {
  PtyFields(io, pty);
  return GatherCost(w.cost, kPtyChases);
}
// Recreating the virtual device takes devfs locks (Table 4's slow pty
// restore).
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs,
                             std::type_identity<Pseudoterminal>) {
  auto pty = std::make_shared<Pseudoterminal>();
  PtyFields(io, *pty);
  return rs.Restored(io, pty, kDevfsLockCost + rs.cost.small_alloc * 2);
}

// The constructor's argument, ahead of the fields.
void ShmHead(auto& io, auto&& kind) { io.U8(kind); }
// `vm_oid` names the backing object (0 for none).
void ShmFields(auto& io, auto& shm, auto&& vm_oid) {
  io.Bytes(shm.name);
  io.I64(shm.key);
  io.I64(shm.shmid);
  io.U32(shm.mode);
  io.U64(shm.size);
  io.U64(vm_oid);
}
// SysV requires scanning the global namespace (Table 4).
SimDuration WriteObject(ManifestWriter& io, const SharedMemory& shm, const WriteLinks& w) {
  ShmHead(io, shm.kind());
  ShmFields(io, shm, shm.object != nullptr ? w.ensure_oid(shm.object.get()).value : 0);
  return GatherCost(w.cost, kShmChases) + kShmShadowCost +
         (shm.kind() == SharedMemory::Kind::kSysV ? kSysvNamespaceScan : 0);
}
// shm_open re-registers a POSIX name in the POSIX shm namespace.
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<SharedMemory>) {
  SharedMemory::Kind kind{};
  ShmHead(io, kind);
  auto shm = std::make_shared<SharedMemory>(kind);
  uint64_t vm_oid = 0;
  ShmFields(io, *shm, vm_oid);
  AURORA_RETURN_IF_ERROR(io.status());
  if (vm_oid != 0) {
    AURORA_ASSIGN_OR_RETURN(ResolvedMemory rm, rs.Resolve(vm_oid));
    shm->object = rm.object;
  }
  rs.kernel->AdoptShm(shm);
  rs.shms.push_back(shm);
  return rs.Restored(io, shm,
                     rs.cost.small_alloc * 3 + 30 * rs.cost.cacheline_miss +
                         (kind == SharedMemory::Kind::kPosix ? 1200 : 0));
}

void DeviceFields(auto& io, auto& dev) {
  io.Bytes(dev.devname);
  io.Bool(dev.whitelisted);
}
SimDuration WriteObject(ManifestWriter& io, const DeviceFile& dev, const WriteLinks& w) {
  DeviceFields(io, dev);
  return GatherCost(w.cost, 8);
}
Result<ObjectPtr> ReadObject(ManifestReader& io, Restorer& rs, std::type_identity<DeviceFile>) {
  auto dev = std::make_shared<DeviceFile>();
  DeviceFields(io, *dev);
  if (io.ok() && !dev->whitelisted) {
    return Status::Error(Errc::kNotSupported,
                         "checkpoint holds a non-whitelisted device: " + dev->devname);
  }
  if (dev->devname == "hpet0") {
    dev->device_memory = VmObject::CreateDevice(kPageSize);
  }
  return rs.Restored(io, dev, rs.cost.small_alloc);
}

// Calls f with the object type of `type` (as a std::type_identity); does
// nothing for a type no codec has.
void WithFileType(FileType type, auto&& f) {
  switch (type) {
    case FileType::kVnode:
      return f(std::type_identity<Vnode>{});
    case FileType::kPipe:
      return f(std::type_identity<Pipe>{});
    case FileType::kSocket:
      return f(std::type_identity<Socket>{});
    case FileType::kKqueue:
      return f(std::type_identity<Kqueue>{});
    case FileType::kPty:
      return f(std::type_identity<Pseudoterminal>{});
    case FileType::kShm:
      return f(std::type_identity<SharedMemory>{});
    case FileType::kDevice:
      return f(std::type_identity<DeviceFile>{});
  }
}

// --- Writing ---------------------------------------------------------------------------

// Serialization-cache entity kinds; combined with the entity's kernel
// identity they key the cached blob. Processes have their own records
// (SerializeCache::processes).
constexpr uint8_t kEntityFileObject = 1;
constexpr uint8_t kEntityDescription = 2;

constexpr int kMapEntryChases = 6;  // map entry + object headers

using ProcessLayout = SerializeCache::ProcessLayout;

// Encodes one process record, fills `layout` (offsets from the record's
// start) and `core_fresh`, the fresh gather cost of its core sub-record;
// returns the fresh gather cost of the whole record. Each map entry's fresh
// gather is GatherCost(kMapEntryChases); the descriptor and AIO sub-records
// charge only their marshal.
SimDuration EncodeProcess(const CostModel& cost, ManifestWriter& io, const Process& proc,
                          const EnsureOidFn& ensure_oid, ProcessLayout* layout,
                          SimDuration* core_fresh) {
  const size_t base = io.size();
  auto offset = [&]() { return io.size() - base; };
  SimDuration fresh = GatherCost(cost, 30);  // proc structure, groups, session, credentials
  const auto ephemeral_children = std::count_if(proc.children.begin(), proc.children.end(),
                                                [](const Process* c) { return c->ephemeral; });
  ProcessHead(io, proc.local_pid(), proc.name());
  CoreFields(io, proc, proc.parent != nullptr ? proc.parent->local_pid() : 0, ephemeral_children);
  io.Count(proc.threads().size());
  for (const auto& t : proc.threads()) {
    fresh += GatherCost(cost, 14);  // kernel stack registers + thread fields
    ThreadFields(io, *t, t->local_tid(), t->resume_state);
  }
  layout->core = {0, offset()};
  *core_fresh = fresh;

  const auto& slots = proc.fds().slots();
  io.Count(static_cast<uint64_t>(std::count_if(
      slots.begin(), slots.end(), [](const auto& slot) { return slot.desc != nullptr; })));
  for (size_t fd = 0; fd < slots.size(); fd++) {
    if (slots[fd].desc != nullptr) {
      SlotFields(io, static_cast<int64_t>(fd), slots[fd].desc->kernel_id, slots[fd].close_on_exec);
    }
  }
  layout->fds = {layout->core.end, offset()};

  auto is_read = [](const AioRequest& aio) { return aio.op == AioRequest::Op::kRead; };
  io.Count(static_cast<uint64_t>(std::count_if(proc.aios.begin(), proc.aios.end(), is_read)));
  for (const AioRequest& aio : proc.aios) {
    if (is_read(aio)) {
      AioFields(io, aio);
    }
  }
  layout->aio = {layout->fds.end, offset()};

  const auto& entries = proc.vm().entries();
  io.Count(entries.size());
  layout->entries.clear();
  layout->entries.reserve(entries.size());
  std::vector<uint64_t> chain;
  for (const auto& [start, entry] : entries) {
    const size_t entry_begin = offset();
    fresh += GatherCost(cost, kMapEntryChases);
    EntryKind kind =
        entry.object->type() == VmObjectType::kDevice ? EntryKind::kDevice : EntryKind::kAnonChain;
    // Consecutive links sharing one OID (a live shadow over its frozen base)
    // are one on-disk region; a vnode link ends the chain: the file's data
    // persists through the Aurora file system, not the checkpoint.
    uint64_t vnode_ino = 0;
    chain.clear();
    for (auto cur = entry.object; kind == EntryKind::kAnonChain && cur != nullptr;
         cur = cur->parent_ref()) {
      if (cur->type() == VmObjectType::kVnode) {
        vnode_ino = cur->backing_ino();
        break;
      }
      const uint64_t oid = ensure_oid(cur.get()).value;
      if (chain.empty() || chain.back() != oid) {
        chain.push_back(oid);
      }
    }
    EntryFields(io, entry, kind, chain, vnode_ino);
    layout->entries.push_back({entry.start, entry.generation, {entry_begin, offset()}});
  }
  layout->map = {layout->aio.end, offset()};
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
  ManifestWriter io(&w);
  HeaderFields(io, kManifestMagic, kManifestVersion, group.name(), epoch, namespace_oid.value);

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
        GatherMemoryChain(entry.object, ensure_oid, &g);
      }
    }
  }
  // Shared memory reachable through descriptors contributes its VM chain
  // even when currently unmapped.
  for (FileObject* obj : g.objects) {
    if (obj->type() == FileType::kShm) {
      auto* shm = static_cast<SharedMemory*>(obj);
      if (shm->object != nullptr) {
        GatherMemoryChain(shm->object, ensure_oid, &g);
      }
    }
  }

  // --- Memory objects, file objects and open-file entries -------------------
  MemoryTableFields(io, g.memory);

  io.Count(g.objects.size());
  const WriteLinks links{sim->cost, g.object_kids, ensure_oid};
  for (FileObject* obj : g.objects) {
    const size_t begin = w.size();
    SimDuration fresh = 0;
    ObjectHead(io, obj->kernel_id(), obj->type());
    WithFileType(obj->type(), [&](auto type) {
      fresh = WriteObject(io, static_cast<const typename decltype(type)::type&>(*obj), links);
    });
    emit(kEntityFileObject, obj->kernel_id(), obj->generation(), begin, fresh);
  }

  io.Count(g.descriptions.size());
  for (FileDescription* desc : g.descriptions) {
    const size_t begin = w.size();
    DescriptionFields(io, *desc, desc->kernel_id,
                      desc->object != nullptr ? desc->object->kernel_id() : 0);
    emit(kEntityDescription, desc->kernel_id, desc->generation, begin, GatherCost(sim->cost, 4));
  }

  // --- Processes ---------------------------------------------------------------
  // Each record is built in place in the manifest; its cached sub-records
  // decide what it costs.
  io.Count(persisted_procs.size());
  ProcessLayout layout;
  for (const Process* proc : persisted_procs) {
    const size_t begin = w.size();
    SimDuration core_fresh = 0;
    SimDuration fresh =
        EncodeProcess(sim->cost, io, *proc, ensure_oid, &layout, &core_fresh);
    const size_t size = w.size() - begin;
    entity_bytes += size;
    if (cache == nullptr) {
      sim->clock.Advance(fresh);
    } else {
      ChargeProcess(sim, cache, mode, proc, w.data().data() + begin, size, layout, core_fresh);
    }
  }

  if (stats != nullptr) {
    for (const Process* proc : persisted_procs) {
      stats->threads += proc->threads().size();
      stats->vm_entries += proc->vm().entries().size();
    }
    stats->processes += persisted_procs.size();
    stats->memory_objects = g.memory.size();
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

// --- Reading ---------------------------------------------------------------------------

// The manifest header, the one place it is decoded; `io` is left at the
// memory-object table.
Result<RestoredGroup> ReadHeader(ManifestReader& io) {
  uint32_t magic = 0;
  uint32_t version = 0;
  RestoredGroup out;
  HeaderFields(io, magic, version, out.name, out.epoch, out.namespace_oid.value);
  if (io.ok() && (magic != kManifestMagic || version != kManifestVersion)) {
    return Status::Error(Errc::kCorrupt, "bad manifest header");
  }
  AURORA_RETURN_IF_ERROR(io.status());
  return out;
}

Status RestoreMapEntry(ManifestReader& io, Restorer& rs, Process* proc) {
  VmMapEntry entry;
  EntryKind kind{};
  std::vector<uint64_t> chain;
  uint64_t vnode_ino = 0;
  EntryFields(io, entry, kind, chain, vnode_ino);
  AURORA_RETURN_IF_ERROR(io.status());
  std::shared_ptr<VmObject> top;  // built bottom-up
  if (kind == EntryKind::kDevice) {
    // Inject the *current* platform's vDSO/device pages (paper 5.3).
    top = rs.kernel->vdso();
    entry.prot &= ~kProtWrite;
  } else {
    if (vnode_ino != 0) {
      AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, rs.BindVnode(vnode_ino));
      top = vn->MakeVmObject();
    }
    for (size_t c = chain.size(); c-- > 0;) {
      AURORA_ASSIGN_OR_RETURN(ResolvedMemory rm, rs.Resolve(chain[c]));
      if (top != nullptr && !rm.chain_complete && rm.object->parent() == nullptr) {
        // A damaged manifest can name one object twice, in one chain or
        // across two; linking it below itself would make a cycle that a
        // fault's chain walk never leaves.
        for (const VmObject* o = top.get(); o != nullptr; o = o->parent()) {
          if (o == rm.object.get()) {
            return Status::Error(Errc::kCorrupt, "shadow chain links an object below itself");
          }
        }
        rm.object->ReplaceParent(top);
      }
      top = rm.object;
    }
    if (top == nullptr) {
      top = VmObject::CreateAnonymous(entry.end - entry.start);
    }
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t mapped,
                          proc->vm().Map(entry.start, entry.end - entry.start, entry.prot, top,
                                         entry.offset, entry.copy_on_write));
  if (mapped != entry.start) {
    return Status::Error(Errc::kBadState, "restored mapping landed at the wrong address");
  }
  VmMapEntry* mapped_entry = proc->vm().FindEntry(entry.start);
  mapped_entry->exclude_from_checkpoint = entry.exclude_from_checkpoint;
  mapped_entry->madvise_hint = entry.madvise_hint;
  return Status::Ok();
}

Status RestoreProcess(ManifestReader& io, Restorer& rs) {
  uint64_t local_pid = 0;
  std::string name;
  ProcessHead(io, local_pid, name);
  AURORA_RETURN_IF_ERROR(io.status());
  AURORA_ASSIGN_OR_RETURN(Process * proc, rs.kernel->CreateProcessForRestore(name, local_pid));
  rs.procs.push_back(proc);
  uint64_t parent = 0;
  uint64_t ephemeral_children = 0;
  CoreFields(io, *proc, parent, ephemeral_children);
  if (ephemeral_children > Kernel::kMaxPid) {
    return Status::Error(Errc::kCorrupt, "ephemeral-child count exceeds the pid space");
  }
  rs.tree.emplace_back(proc, parent, ephemeral_children);
  for (uint64_t n = io.Count(kThreadBytes); n > 0 && io.ok(); n--) {
    Thread& thread = proc->AddThread();
    uint64_t local_tid = 0;
    ThreadFields(io, thread, local_tid, thread.state);
    thread.set_local_tid(local_tid);
    rs.sim->clock.Advance(rs.cost.small_alloc + rs.cost.MemCopy(sizeof(CpuState)));
  }
  for (uint64_t n = io.Count(kSlotBytes); n > 0 && io.ok(); n--) {
    int64_t fd = 0;
    uint64_t desc_kid = 0;
    bool cloexec = false;
    SlotFields(io, fd, desc_kid, cloexec);
    AURORA_RETURN_IF_ERROR(io.status());
    auto it = rs.descriptions.find(desc_kid);
    if (it == rs.descriptions.end()) {
      return Status::Error(Errc::kCorrupt, "fd references unknown descriptor");
    }
    AURORA_RETURN_IF_ERROR(proc->fds().InstallAt(static_cast<int>(fd), it->second, cloexec));
  }
  io.List(proc->aios, kAioBytes, [&](AioRequest& aio) {
    AioFields(io, aio);
    aio.op = AioRequest::Op::kRead;
    aio.state = AioRequest::State::kInFlight;
  });
  for (uint64_t n = io.Count(kEntryBytes); n > 0 && io.ok(); n--) {
    AURORA_RETURN_IF_ERROR(RestoreMapEntry(io, rs, proc));
  }
  return io.status();
}

}  // namespace

Result<RestoredGroup> PeekManifest(const std::vector<uint8_t>& manifest) {
  ManifestReader io(manifest);
  return ReadHeader(io);
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> ManifestMemoryObjects(
    const std::vector<uint8_t>& manifest) {
  ManifestReader io(manifest);
  AURORA_RETURN_IF_ERROR(ReadHeader(io).status());
  MemoryTable memory;
  MemoryTableFields(io, memory);
  AURORA_RETURN_IF_ERROR(io.status());
  return memory;
}

Result<RestoredGroup> RestoreOsState(SimContext* sim, Kernel* kernel, AuroraFs* fs,
                                     const std::vector<uint8_t>& manifest,
                                     const MemoryResolverFn& resolve) {
  ManifestReader io(manifest);
  AURORA_ASSIGN_OR_RETURN(RestoredGroup out, ReadHeader(io));
  MemoryTable memory;
  MemoryTableFields(io, memory);
  AURORA_RETURN_IF_ERROR(io.status());
  Restorer rs(sim, kernel, fs, resolve);
  for (const auto& [oid, size] : memory) {
    rs.memory_sizes[oid] = size;
  }

  for (uint64_t n = io.Count(kObjectBytes); n > 0 && io.ok(); n--) {
    FileType type{};
    ObjectHead(io, rs.kid, type);
    Result<ObjectPtr> obj = Status::Error(Errc::kCorrupt, "unknown file object type");
    WithFileType(type, [&](auto t) { obj = ReadObject(io, rs, t); });
    AURORA_RETURN_IF_ERROR(obj.status());
    rs.objects[rs.kid] = std::move(obj).value();
  }

  for (uint64_t n = io.Count(kDescriptionBytes); n > 0 && io.ok(); n--) {
    auto desc = std::make_shared<FileDescription>();
    uint64_t kid = 0;
    uint64_t object_kid = 0;
    DescriptionFields(io, *desc, kid, object_kid);
    AURORA_RETURN_IF_ERROR(io.status());
    if (object_kid != 0) {
      auto it = rs.objects.find(object_kid);
      if (it == rs.objects.end()) {
        return Status::Error(Errc::kCorrupt, "description references unknown object");
      }
      desc->object = it->second;
    }
    rs.descriptions[kid] = std::move(desc);
    sim->clock.Advance(sim->cost.small_alloc);
  }
  AURORA_RETURN_IF_ERROR(io.status());

  // Control messages and socket peers, now that every description is in.
  for (Restorer::PendingControl& pc : rs.pending_controls) {
    ControlMessage cm;
    cm.cred_pid = pc.record.cred_pid;
    for (uint64_t dk : pc.record.desc_kids) {
      auto it = rs.descriptions.find(dk);
      if (it == rs.descriptions.end()) {
        return Status::Error(Errc::kCorrupt, "control message references unknown descriptor");
      }
      cm.fds.push_back(it->second);
    }
    pc.socket->recv_buf[pc.segment].control = std::move(cm);
  }
  for (const auto& [kid, peer_kid] : rs.socket_peers) {
    // A later record may reuse a socket's kid, and a damaged peer kid may
    // name any object: link only two sockets.
    auto a = rs.objects.find(kid);
    auto b = rs.objects.find(peer_kid);
    if (a != rs.objects.end() && b != rs.objects.end() &&
        a->second->type() == FileType::kSocket && b->second->type() == FileType::kSocket) {
      std::static_pointer_cast<Socket>(a->second)->peer =
          std::static_pointer_cast<Socket>(b->second);
    }
  }

  for (uint64_t n = io.Count(kProcessBytes); n > 0 && io.ok(); n--) {
    AURORA_RETURN_IF_ERROR(RestoreProcess(io, rs));
  }
  AURORA_RETURN_IF_ERROR(io.status());

  // Parent/child links by checkpoint-time local pid, and the ephemeral
  // children's SIGCHLDs.
  for (const auto& [proc, parent_pid, ephemeral_children] : rs.tree) {
    for (Process* candidate : rs.procs) {
      if (parent_pid != 0 && candidate->local_pid() == parent_pid) {
        proc->parent = candidate;
        candidate->children.push_back(proc);
        break;
      }
    }
    for (uint64_t c = 0; c < ephemeral_children; c++) {
      proc->PostSignal(kSigChld);
    }
  }
  rs.finished = true;
  out.processes = rs.procs;
  return out;
}

}  // namespace aurora
