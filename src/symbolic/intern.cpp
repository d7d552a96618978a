// The global expression interner (hash-consing core).
//
// Layout: a fixed number of shards, each a mutex + arena (std::deque, so
// node addresses are stable under push_back) + an open hash table from
// structural hash to node. A node's shard is chosen by its structural
// hash, so contention distributes with the node population. Shard locks
// are leaf locks: they are never held while calling back into the
// simplifier or another shard, so there is no lock ordering to get wrong.
//
// Lifetime: the interner is a leaked singleton — nodes live until process
// exit, which is what lets `Expr` be a bare pointer with free copies.
// This is the classic hash-consing tradeoff. The simplify memo grows
// with the node population: each entry maps one interned node to another.
//
// Determinism: structural hashes mix kinds, constant values, and symbol
// NAME hashes (never SymbolId values or addresses), so `ExprNode::hash`
// is identical across runs and thread counts. Table iteration order is
// never observable — lookups only.

#include "intern.hpp"

#include <cassert>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "dmv/util/fnv1a.hpp"

namespace dmv::symbolic {

namespace {

using detail::InternAccess;

using util::kFnvOffset;

// One FNV-1a step per byte of `value`: mixing all 8 bytes separately
// spreads structurally close nodes across shards.
std::uint64_t fnv1a_bytewise(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = util::fnv1a(hash, (value >> (8 * i)) & 0xff);
  }
  return hash;
}

// --- symbol table -----------------------------------------------------

struct SymbolTableGlobal {
  std::mutex mu;
  // Names live in a deque so `const std::string&` handed out by
  // symbol_name_of stays valid as the table grows.
  std::deque<std::string> names;
  std::deque<std::uint64_t> name_hashes;  ///< util::fnv1a_string(name), cached.
  std::unordered_map<std::string_view, SymbolId> ids;  // views into names
};

SymbolTableGlobal& symbols() {
  static SymbolTableGlobal* table = new SymbolTableGlobal();
  return *table;
}

// --- symbol-set interner ----------------------------------------------

// Free-symbol sets repeat heavily (every node over the same loop nest
// shares a handful of sets), so they are interned like nodes and stored
// by pointer in ExprNode.
struct SymbolSetInterner {
  std::mutex mu;
  std::deque<std::vector<SymbolId>> arena;
  std::unordered_multimap<std::uint64_t, const std::vector<SymbolId>*> table;
  const std::vector<SymbolId> empty;
};

SymbolSetInterner& symbol_sets() {
  static SymbolSetInterner* interner = new SymbolSetInterner();
  return *interner;
}

const std::vector<SymbolId>* intern_symbol_set(std::vector<SymbolId> set) {
  SymbolSetInterner& interner = symbol_sets();
  if (set.empty()) return &interner.empty;
  std::uint64_t hash = kFnvOffset;
  for (const SymbolId id : set) hash = fnv1a_bytewise(hash, id);
  std::lock_guard<std::mutex> lock(interner.mu);
  auto [begin, end] = interner.table.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (*it->second == set) return it->second;
  }
  interner.arena.push_back(std::move(set));
  const std::vector<SymbolId>* interned = &interner.arena.back();
  interner.table.emplace(hash, interned);
  return interned;
}

// --- node shards ------------------------------------------------------

constexpr std::size_t kShardCount = 16;

struct Shard {
  std::mutex mu;
  std::deque<ExprNode> arena;  ///< Stable addresses under push_back.
  std::unordered_multimap<std::uint64_t, const ExprNode*> table;
  /// raw node -> canonical simplified node.
  std::unordered_map<const ExprNode*, const ExprNode*> simplify_memo;
};

struct Interner {
  Shard shards[kShardCount];
  Shard& shard_for(std::uint64_t hash) {
    return shards[(hash >> 58) % kShardCount];
  }
};

Interner& interner() {
  static Interner* instance = new Interner();
  return *instance;
}

// Shallow structural equality against an interned candidate: children are
// interned, so operand comparison is pointer comparison — O(arity), never
// recursive.
bool node_matches(const ExprNode& node, ExprKind kind, std::int64_t value,
                  SymbolId sym, std::span<const Expr> operands) {
  if (node.kind != kind) return false;
  switch (kind) {
    case ExprKind::Constant:
      return node.value == value;
    case ExprKind::Symbol:
      return node.sym == sym;
    default: {
      if (node.operands.size() != operands.size()) return false;
      for (std::size_t i = 0; i < operands.size(); ++i) {
        if (InternAccess::unwrap(node.operands[i]) !=
            InternAccess::unwrap(operands[i])) {
          return false;
        }
      }
      return true;
    }
  }
}

}  // namespace

// --- symbol interning (public) ----------------------------------------

SymbolId intern_symbol(std::string_view name) {
  assert(!name.empty());
  SymbolTableGlobal& table = symbols();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  const SymbolId id = static_cast<SymbolId>(table.names.size());
  table.names.emplace_back(name);
  table.name_hashes.push_back(util::fnv1a_string(name));
  table.ids.emplace(std::string_view(table.names.back()), id);
  return id;
}

std::optional<SymbolId> find_symbol(std::string_view name) {
  SymbolTableGlobal& table = symbols();
  std::lock_guard<std::mutex> lock(table.mu);
  auto it = table.ids.find(name);
  if (it == table.ids.end()) return std::nullopt;
  return it->second;
}

const std::string& symbol_name_of(SymbolId id) {
  SymbolTableGlobal& table = symbols();
  std::lock_guard<std::mutex> lock(table.mu);
  // Deque references are stable under push_back, so the reference
  // outlives the lock.
  return table.names.at(id);
}

namespace detail_intern {

std::uint64_t symbol_name_hash(SymbolId id) {
  SymbolTableGlobal& table = symbols();
  std::lock_guard<std::mutex> lock(table.mu);
  return table.name_hashes.at(id);
}

// Interns a node, computing metadata on the way in. `operands` must
// already be interned Exprs.
const ExprNode* intern_node(ExprKind kind, std::int64_t value, SymbolId sym,
                            std::vector<Expr> operands) {
  // Structural hash: deterministic across runs (symbol NAME hash, child
  // structural hashes — no ids, no addresses).
  std::uint64_t hash =
      fnv1a_bytewise(kFnvOffset, static_cast<std::uint64_t>(kind));
  switch (kind) {
    case ExprKind::Constant:
      hash = fnv1a_bytewise(hash, static_cast<std::uint64_t>(value));
      break;
    case ExprKind::Symbol:
      hash = fnv1a_bytewise(hash, symbol_name_hash(sym));
      break;
    default:
      for (const Expr& op : operands) {
        hash = fnv1a_bytewise(hash, InternAccess::unwrap(op)->hash);
      }
      break;
  }

  Shard& shard = interner().shard_for(hash);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [begin, end] = shard.table.equal_range(hash);
    for (auto it = begin; it != end; ++it) {
      if (node_matches(*it->second, kind, value, sym, operands)) {
        return it->second;
      }
    }
  }

  // Miss: compute the remaining metadata OUTSIDE the shard lock (the
  // symbol-set interner takes its own leaf lock), then insert. A racing
  // thread interning the same node computes identical metadata; the
  // re-check under the lock keeps the table canonical.
  std::uint64_t mask = 0;
  const std::vector<SymbolId>* free_set = nullptr;
  switch (kind) {
    case ExprKind::Constant:
      free_set = intern_symbol_set({});
      break;
    case ExprKind::Symbol:
      mask = std::uint64_t{1} << (sym % 64);
      free_set = intern_symbol_set({sym});
      break;
    default: {
      std::vector<SymbolId> merged;
      for (const Expr& op : operands) {
        const ExprNode* child = InternAccess::unwrap(op);
        mask |= child->symbol_mask;
        // Sorted-merge union of the children's interned sets.
        const std::vector<SymbolId>& theirs = *child->free_syms;
        std::vector<SymbolId> next;
        next.reserve(merged.size() + theirs.size());
        std::size_t a = 0, b = 0;
        while (a < merged.size() || b < theirs.size()) {
          if (b == theirs.size() ||
              (a < merged.size() && merged[a] < theirs[b])) {
            next.push_back(merged[a++]);
          } else if (a == merged.size() || theirs[b] < merged[a]) {
            next.push_back(theirs[b++]);
          } else {
            next.push_back(merged[a]);
            ++a;
            ++b;
          }
        }
        merged = std::move(next);
      }
      free_set = intern_symbol_set(std::move(merged));
      break;
    }
  }

  std::lock_guard<std::mutex> lock(shard.mu);
  auto [begin, end] = shard.table.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (node_matches(*it->second, kind, value, sym, operands)) {
      return it->second;
    }
  }
  shard.arena.push_back(ExprNode{});
  ExprNode& node = shard.arena.back();
  node.kind = kind;
  node.value = value;
  node.sym = sym;
  node.name = kind == ExprKind::Symbol ? &symbol_name_of(sym) : nullptr;
  node.operands = std::move(operands);
  node.hash = hash;
  node.symbol_mask = mask;
  node.free_syms = free_set;
  shard.table.emplace(hash, &node);
  return &node;
}

const ExprNode* lookup_simplify_memo(const ExprNode* raw) {
  Shard& shard = interner().shard_for(raw->hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.simplify_memo.find(raw);
  return it == shard.simplify_memo.end() ? nullptr : it->second;
}

void store_simplify_memo(const ExprNode* raw, const ExprNode* canonical) {
  Shard& shard = interner().shard_for(raw->hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.simplify_memo.emplace(raw, canonical);
}

}  // namespace detail_intern

}  // namespace dmv::symbolic
