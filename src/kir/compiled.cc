#include "src/kir/compiled.h"

#include <atomic>
#include <cassert>
#include <memory>
#include <mutex>

#include "src/kir/program.h"
#include "src/obs/metrics.h"

namespace pmk {

namespace {

constexpr std::uint32_t kInstrBytes = 4;

bool SameGeometry(const CacheConfig& a, const CacheConfig& b) {
  return a.size_bytes == b.size_bytes && a.ways == b.ways && a.line_bytes == b.line_bytes &&
         a.policy == b.policy;
}

}  // namespace

CompiledSpec CompiledSpec::Of(const MachineConfig& mc) {
  CompiledSpec s;
  s.l1i = mc.l1i;
  s.l1d = mc.l1d;
  s.l2 = mc.l2;
  s.load_use_stall = mc.memory.load_use_stall;
  s.btb_entries = mc.bpred.btb_entries;
  return s;
}

bool CompiledSpec::Matches(const MachineConfig& mc) const {
  return SameGeometry(l1i, mc.l1i) && SameGeometry(l1d, mc.l1d) && SameGeometry(l2, mc.l2) &&
         load_use_stall == mc.memory.load_use_stall && btb_entries == mc.bpred.btb_entries;
}

CompiledProgram::CompiledProgram(const Program& p, const MachineConfig& mc)
    : spec_(CompiledSpec::Of(mc)) {
  assert(p.laid_out());
  // Throwaway Cache instances provide the set/tag arithmetic, so the folded
  // indices agree with the runtime lookup by construction.
  const Cache l1i(mc.l1i);
  const Cache l1d(mc.l1d);
  const Cache l2(mc.l2);
  const std::uint32_t line = mc.l1i.line_bytes;

  std::size_t n_ops = 0;
  for (BlockId id = 0; id < p.num_blocks(); ++id) {
    const Block& b = p.block(id);
    const Addr first = b.address / line;
    const Addr last = (b.address + static_cast<Addr>(b.instr_count) * kInstrBytes - 1) / line;
    n_ops += static_cast<std::size_t>(last - first + 1) + b.prepared_accesses.size() +
             b.reg_ops.size() + 1;
  }
  ops_.reserve(n_ops);
  blocks_.resize(p.num_blocks());
  std::vector<std::size_t> begins(p.num_blocks());

  for (BlockId id = 0; id < p.num_blocks(); ++id) {
    const Block& b = p.block(id);
    begins[id] = ops_.size();

    const Addr first = b.address / line;
    const Addr last = (b.address + static_cast<Addr>(b.instr_count) * kInstrBytes - 1) / line;
    const std::uint32_t n_lines = static_cast<std::uint32_t>(last - first + 1);
    for (std::uint32_t l = 0; l < n_lines; ++l) {
      const Addr line_addr = (first + l) * line;
      CompiledOp op;
      op.kind = CompiledOp::Kind::kILine;
      op.u.mem = {l1i.SetIndexOf(line_addr), l2.SetIndexOf(line_addr), l1i.TagOf(line_addr),
                  l2.TagOf(line_addr)};
      ops_.push_back(op);
    }
    for (const PreparedAccess& a : b.prepared_accesses) {
      CompiledOp op;
      op.kind = CompiledOp::Kind::kDAcc;
      op.u.mem = {l1d.SetIndexOf(a.addr), l2.SetIndexOf(a.addr), l1d.TagOf(a.addr),
                  l2.TagOf(a.addr)};
      ops_.push_back(op);
    }
    for (const RegOp& r : b.reg_ops) {
      CompiledOp op;
      switch (r.kind) {
        case RegOp::Kind::kConst:
          op.kind = CompiledOp::Kind::kRegConst;
          break;
        case RegOp::Kind::kAdd:
          op.kind = CompiledOp::Kind::kRegAdd;
          break;
        case RegOp::Kind::kMovReg:
          op.kind = CompiledOp::Kind::kRegMov;
          break;
      }
      op.dst = r.dst;
      op.src = r.src;
      op.u.reg.imm = r.imm;
      ops_.push_back(op);
    }
    CompiledOp end;
    end.kind = CompiledOp::Kind::kEnd;
    const std::uint32_t n_accesses = static_cast<std::uint32_t>(b.prepared_accesses.size());
    end.u.end = {n_lines, n_accesses, b.instr_count,
                 static_cast<Cycles>(b.instr_count) + b.raw_cycles +
                     static_cast<Cycles>(n_accesses) * spec_.load_use_stall};
    ops_.push_back(end);

    CompiledBlock& cb = blocks_[id];
    cb.branch_pc = b.branch_pc;
    cb.btb_index = static_cast<std::uint32_t>(b.branch_pc % spec_.btb_entries);
    cb.edges = p.EdgesOf(id);
  }
  // The kILine-free twin streams for the executor's I-fetch memo: identical
  // op sequence minus the I-line probes; the kEnd op is shared by value so
  // the counts and base cost stay in lockstep.
  std::vector<std::size_t> hit_begins(p.num_blocks());
  hit_ops_.reserve(ops_.size());
  for (BlockId id = 0; id < p.num_blocks(); ++id) {
    hit_begins[id] = hit_ops_.size();
    for (const CompiledOp* op = ops_.data() + begins[id];; ++op) {
      if (op->kind != CompiledOp::Kind::kILine) {
        hit_ops_.push_back(*op);
      }
      if (op->kind == CompiledOp::Kind::kEnd) {
        break;
      }
    }
  }
  // ops_ and hit_ops_ are final; resolve the per-block stream pointers.
  for (BlockId id = 0; id < p.num_blocks(); ++id) {
    blocks_[id].ops = ops_.data() + begins[id];
    blocks_[id].hit_ops = hit_ops_.data() + hit_begins[id];
  }
}

// CompiledProgram::Run is defined in executor.cc, beside its only caller
// (Executor::AtCompiled), so the compiler can inline the dispatch loop into
// the per-block hot path.

// --- Program-side specialisation cache -------------------------------------
//
// One CompiledCache per Program, created eagerly at Layout() time (single-
// threaded by contract) so the shared_ptr itself is never written once the
// Program is shared across cloned Systems and campaign worker threads.
// Lookups walk a lock-free singly-linked list (acquire on the head, nodes are
// immutable once published); builders serialise on the mutex and publish with
// a release store. In practice the list holds one node per distinct machine
// geometry used against the image — almost always exactly one.

namespace detail {

struct CompiledCacheNode {
  CompiledProgram prog;
  CompiledCacheNode* next = nullptr;
};

struct CompiledCache {
  std::mutex mu;
  std::atomic<CompiledCacheNode*> head{nullptr};

  ~CompiledCache() {
    CompiledCacheNode* n = head.load(std::memory_order_relaxed);
    while (n != nullptr) {
      CompiledCacheNode* next = n->next;
      delete n;
      n = next;
    }
  }
};

std::shared_ptr<CompiledCache> NewCompiledCache() { return std::make_shared<CompiledCache>(); }

}  // namespace detail

const CompiledProgram* Program::CompiledFor(const MachineConfig& mc) const {
  assert(laid_out_ && compiled_ != nullptr);
  detail::CompiledCache& cache = *compiled_;
  for (const detail::CompiledCacheNode* n = cache.head.load(std::memory_order_acquire);
       n != nullptr; n = n->next) {
    if (n->prog.Matches(mc)) {
      return &n->prog;
    }
  }
  std::lock_guard<std::mutex> lock(cache.mu);
  for (const detail::CompiledCacheNode* n = cache.head.load(std::memory_order_relaxed);
       n != nullptr; n = n->next) {
    if (n->prog.Matches(mc)) {
      return &n->prog;
    }
  }
  static const obs::Timer compile_timer("sim.exec.compile_wall_nanos");
  detail::CompiledCacheNode* node;
  {
    const auto scope = compile_timer.Measure();
    node = new detail::CompiledCacheNode{CompiledProgram(*this, mc),
                                         cache.head.load(std::memory_order_relaxed)};
  }
  cache.head.store(node, std::memory_order_release);
  return &node->prog;
}

}  // namespace pmk
