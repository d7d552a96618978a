#include "dmv/symbolic/expr.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "intern.hpp"

namespace dmv::symbolic {

namespace {

using detail::InternAccess;
using detail_intern::intern_node;

// Small interned constants resolved once: shapes and strides are full of
// 0/1/2, and Expr's default constructor builds 0.
const ExprNode* small_constant(std::int64_t v) {
  static const ExprNode* const cache[] = {
      intern_node(ExprKind::Constant, 0, 0, {}),
      intern_node(ExprKind::Constant, 1, 0, {}),
      intern_node(ExprKind::Constant, 2, 0, {}),
      intern_node(ExprKind::Constant, 3, 0, {}),
      intern_node(ExprKind::Constant, 4, 0, {})};
  assert(v >= 0 && v <= 4);
  return cache[v];
}

const ExprNode* constant_node(std::int64_t v) {
  if (v >= 0 && v <= 4) return small_constant(v);
  return intern_node(ExprKind::Constant, v, 0, {});
}

[[maybe_unused]] bool is_nary(ExprKind kind) {
  return kind == ExprKind::Add || kind == ExprKind::Mul;
}

int kind_rank(ExprKind kind) { return static_cast<int>(kind); }

}  // namespace

Expr::Expr() : node_(small_constant(0)) {}

Expr::Expr(std::int64_t value) : node_(constant_node(value)) {}

Expr Expr::symbol(std::string name) {
  assert(!name.empty());
  return symbol(intern_symbol(name));
}

Expr Expr::symbol(SymbolId id) {
  return Expr(intern_node(ExprKind::Symbol, 0, id, {}));
}

Expr detail_make_raw(ExprKind kind, std::vector<Expr> operands) {
  return InternAccess::wrap(intern_node(kind, 0, 0, std::move(operands)));
}

Expr Expr::make(ExprKind kind, std::vector<Expr> operands) {
  assert(kind != ExprKind::Constant && kind != ExprKind::Symbol);
  assert(is_nary(kind) ? !operands.empty() : operands.size() == 2);
  return simplified(detail_make_raw(kind, std::move(operands)));
}

ExprKind Expr::kind() const { return node_->kind; }

bool Expr::is_constant(std::int64_t value) const {
  return is_constant() && node_->value == value;
}

std::int64_t Expr::constant_value() const {
  assert(is_constant());
  return node_->value;
}

const std::string& Expr::symbol_name() const {
  assert(is_symbol());
  return *node_->name;
}

SymbolId Expr::symbol_id() const {
  assert(is_symbol());
  return node_->sym;
}

std::span<const Expr> Expr::operands() const { return node_->operands; }

std::uint64_t Expr::structural_hash() const { return node_->hash; }

std::size_t Expr::dag_size() const {
  std::unordered_set<const ExprNode*> seen;
  std::vector<const ExprNode*> stack{node_};
  while (!stack.empty()) {
    const ExprNode* node = stack.back();
    stack.pop_back();
    if (!seen.insert(node).second) continue;
    for (const Expr& op : node->operands) {
      stack.push_back(InternAccess::unwrap(op));
    }
  }
  return seen.size();
}

// --- integer helpers --------------------------------------------------

namespace {

void check_quotient(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::domain_error("symbolic: division by zero");
  if (!quotient_fits_i64(a, b)) {
    throw std::domain_error("symbolic: quotient overflows int64");
  }
}

}  // namespace

std::int64_t floor_div_i64(std::int64_t a, std::int64_t b) {
  check_quotient(a, b);
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t ceil_div_i64(std::int64_t a, std::int64_t b) {
  check_quotient(a, b);
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;
  return q;
}

std::int64_t mod_i64(std::int64_t a, std::int64_t b) {
  if (b == 0) throw std::domain_error("symbolic: modulo by zero");
  if (b == -1) return 0;  // INT64_MIN % -1 would trap.
  std::int64_t r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) r += b;
  return r;
}

std::int64_t pow_i64(std::int64_t base, std::int64_t exponent) {
  if (exponent < 0) throw std::domain_error("symbolic: negative exponent");
  // Square-and-multiply in uint64: the product modulo 2^64 of `exponent`
  // factors of `base`, as repeated wrapping multiplication gives it.
  std::uint64_t result = 1;
  std::uint64_t square = static_cast<std::uint64_t>(base);
  for (std::uint64_t e = static_cast<std::uint64_t>(exponent); e != 0;
       e >>= 1) {
    if (e & 1) result *= square;
    square *= square;
  }
  return static_cast<std::int64_t>(result);
}

std::optional<std::int64_t> checked_pow_i64(std::int64_t base,
                                            std::int64_t exponent) {
  if (exponent < 0) return std::nullopt;
  // Trivial bases first: they terminate the loop bound below AND make
  // huge exponents well-defined (0**0 == 1 matches pow_i64).
  if (base == 0) return exponent == 0 ? 1 : 0;
  if (base == 1) return 1;
  if (base == -1) return (exponent % 2 == 0) ? 1 : -1;
  // |base| >= 2: any exponent >= 63 overflows int64.
  if (exponent >= 63) return std::nullopt;
  std::int64_t result = 1;
  for (std::int64_t i = 0; i < exponent; ++i) {
    if (__builtin_mul_overflow(result, base, &result)) return std::nullopt;
  }
  return result;
}

// --- evaluation -------------------------------------------------------

namespace {

// Recursive tree walk; every division and power goes through the
// integer helpers above.
std::int64_t evaluate_node(const ExprNode& node, const SymbolMap& symbols) {
  switch (node.kind) {
    case ExprKind::Constant:
      return node.value;
    case ExprKind::Symbol: {
      auto it = symbols.find(*node.name);
      if (it == symbols.end()) throw UnboundSymbolError(*node.name);
      return it->second;
    }
    case ExprKind::Add: {
      std::int64_t acc = 0;
      for (const Expr& op : node.operands) {
        acc += evaluate_node(op.node(), symbols);
      }
      return acc;
    }
    case ExprKind::Mul: {
      std::int64_t acc = 1;
      for (const Expr& op : node.operands) {
        acc *= evaluate_node(op.node(), symbols);
      }
      return acc;
    }
    case ExprKind::FloorDiv:
      return floor_div_i64(evaluate_node(node.operands[0].node(), symbols),
                           evaluate_node(node.operands[1].node(), symbols));
    case ExprKind::CeilDiv:
      return ceil_div_i64(evaluate_node(node.operands[0].node(), symbols),
                          evaluate_node(node.operands[1].node(), symbols));
    case ExprKind::Mod:
      return mod_i64(evaluate_node(node.operands[0].node(), symbols),
                     evaluate_node(node.operands[1].node(), symbols));
    case ExprKind::Min:
      return std::min(evaluate_node(node.operands[0].node(), symbols),
                      evaluate_node(node.operands[1].node(), symbols));
    case ExprKind::Max:
      return std::max(evaluate_node(node.operands[0].node(), symbols),
                      evaluate_node(node.operands[1].node(), symbols));
    case ExprKind::Pow:
      return pow_i64(evaluate_node(node.operands[0].node(), symbols),
                     evaluate_node(node.operands[1].node(), symbols));
  }
  assert(false && "unreachable");
  return 0;
}

}  // namespace

std::int64_t Expr::evaluate(const SymbolMap& symbols) const {
  return evaluate_node(*node_, symbols);
}

std::optional<std::int64_t> Expr::try_evaluate(const SymbolMap& symbols) const {
  try {
    return evaluate(symbols);
  } catch (const UnboundSymbolError&) {
    return std::nullopt;
  } catch (const std::domain_error&) {
    return std::nullopt;
  }
}

// --- substitution -----------------------------------------------------

namespace {

struct SubstEntry {
  SymbolId id;
  Expr replacement;
};

// Exact reachability test: does this subtree contain any substituted
// symbol? Bloom mask first (one AND), then a sorted-merge intersection of
// two small id vectors. Both are intern-time metadata — no tree walk.
bool reaches_any(const ExprNode* node, const std::vector<SubstEntry>& entries,
                 std::uint64_t entry_mask) {
  if ((node->symbol_mask & entry_mask) == 0) return false;
  const std::vector<SymbolId>& free = *node->free_syms;
  std::size_t a = 0, b = 0;
  while (a < free.size() && b < entries.size()) {
    if (free[a] < entries[b].id) {
      ++a;
    } else if (entries[b].id < free[a]) {
      ++b;
    } else {
      return true;
    }
  }
  return false;
}

const Expr* find_replacement(const std::vector<SubstEntry>& entries,
                             SymbolId id) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const SubstEntry& entry, SymbolId key) { return entry.id < key; });
  return it != entries.end() && it->id == id ? &it->replacement : nullptr;
}

// DAG-memoized rewrite: every distinct node is rewritten at most once per
// call, so heavily shared subtrees cost their DAG size, not their tree
// size; subtrees that reach no substituted symbol are returned as is.
Expr substitute_rec(const Expr& e, const std::vector<SubstEntry>& entries,
                    std::uint64_t entry_mask,
                    std::unordered_map<const ExprNode*, Expr>& memo) {
  const ExprNode* node = InternAccess::unwrap(e);
  if (!reaches_any(node, entries, entry_mask)) return e;
  switch (node->kind) {
    case ExprKind::Constant:
      return e;
    case ExprKind::Symbol: {
      const Expr* replacement = find_replacement(entries, node->sym);
      return replacement != nullptr ? *replacement : e;
    }
    default: {
      if (auto it = memo.find(node); it != memo.end()) return it->second;
      std::vector<Expr> new_operands;
      new_operands.reserve(node->operands.size());
      bool changed = false;
      for (const Expr& op : node->operands) {
        new_operands.push_back(substitute_rec(op, entries, entry_mask, memo));
        changed = changed || !new_operands.back().same_node(op);
      }
      Expr result = changed
                        ? Expr::make(node->kind, std::move(new_operands))
                        : e;
      memo.emplace(node, result);
      return result;
    }
  }
}

// Shared top level of both substitute overloads. Sorts `entries` by id;
// names are unique, so the ids are too.
Expr substitute_entries(const Expr& e, std::vector<SubstEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SubstEntry& a, const SubstEntry& b) {
              return a.id < b.id;
            });
  std::uint64_t entry_mask = 0;
  for (const SubstEntry& entry : entries) {
    entry_mask |= std::uint64_t{1} << (entry.id % 64);
  }
  std::unordered_map<const ExprNode*, Expr> memo;
  return substitute_rec(e, entries, entry_mask, memo);
}

}  // namespace

Expr Expr::substitute(const SymbolMap& symbols) const {
  std::vector<SubstEntry> entries;
  entries.reserve(symbols.size());
  for (const auto& [name, value] : symbols) {
    entries.push_back({intern_symbol(name), Expr(value)});
  }
  return substitute_entries(*this, std::move(entries));
}

Expr Expr::substitute(const std::map<std::string, Expr>& replacements) const {
  std::vector<SubstEntry> entries;
  entries.reserve(replacements.size());
  for (const auto& [name, replacement] : replacements) {
    entries.push_back({intern_symbol(name), replacement});
  }
  return substitute_entries(*this, std::move(entries));
}

// --- free-symbol queries ----------------------------------------------

void Expr::collect_free_symbols(std::set<std::string>& out) const {
  for (const SymbolId id : *node_->free_syms) {
    out.insert(symbol_name_of(id));
  }
}

std::set<std::string> Expr::free_symbols() const {
  std::set<std::string> out;
  collect_free_symbols(out);
  return out;
}

namespace {

// Exact membership test against intern-time metadata: bloom mask, then
// binary search of the interned sorted id set.
bool node_depends_on(const ExprNode* node, SymbolId id) {
  if ((node->symbol_mask & (std::uint64_t{1} << (id % 64))) == 0) {
    return false;
  }
  const std::vector<SymbolId>& free = *node->free_syms;
  return std::binary_search(free.begin(), free.end(), id);
}

}  // namespace

bool Expr::depends_on(SymbolId symbol) const {
  return node_depends_on(node_, symbol);
}

bool Expr::depends_on(std::string_view symbol) const {
  const std::optional<SymbolId> id = find_symbol(symbol);
  // Never interned => cannot occur in any expression.
  return id.has_value() && node_depends_on(node_, *id);
}

bool depends_on_any(const Expr& e, const std::set<std::string>& symbols) {
  if (symbols.empty()) return false;
  for (const std::string& symbol : symbols) {
    if (e.depends_on(std::string_view(symbol))) return true;
  }
  return false;
}

// --- ordering and equality --------------------------------------------

int Expr::compare(const Expr& a, const Expr& b) {
  // Interned: structural identity IS pointer identity.
  if (a.node_ == b.node_) return 0;
  // Constants sort before symbols, symbols before composites; this keeps
  // canonical forms like `4 + 2*N + N*M` stable.
  auto category = [](const Expr& e) {
    if (e.is_constant()) return 0;
    if (e.is_symbol()) return 1;
    return 2;
  };
  if (category(a) != category(b)) return category(a) < category(b) ? -1 : 1;
  if (a.is_constant()) {
    if (a.constant_value() != b.constant_value())
      return a.constant_value() < b.constant_value() ? -1 : 1;
    return 0;
  }
  if (a.is_symbol()) return a.symbol_name().compare(b.symbol_name());
  if (a.kind() != b.kind())
    return kind_rank(a.kind()) < kind_rank(b.kind()) ? -1 : 1;
  const auto& ao = a.operands();
  const auto& bo = b.operands();
  if (ao.size() != bo.size()) return ao.size() < bo.size() ? -1 : 1;
  for (std::size_t i = 0; i < ao.size(); ++i) {
    int c = compare(ao[i], bo[i]);
    if (c != 0) return c;
  }
  return 0;
}

bool Expr::equals(const Expr& other) const {
  if (compare(*this, other) == 0) return true;
  return compare(expanded(*this), expanded(other)) == 0;
}

// --- printing ---------------------------------------------------------

namespace {

// Precedence levels for printing: higher binds tighter.
int precedence(ExprKind kind) {
  switch (kind) {
    case ExprKind::Add:
      return 1;
    case ExprKind::Mul:
    case ExprKind::FloorDiv:
    case ExprKind::Mod:
      return 2;
    case ExprKind::Pow:
      return 3;
    default:
      return 4;  // leaves and function-call forms never need parentheses
  }
}

void print_expr(const Expr& e, std::ostream& os, int parent_precedence) {
  const int own = precedence(e.kind());
  const bool parens = own < parent_precedence;
  if (parens) os << '(';
  switch (e.kind()) {
    case ExprKind::Constant:
      os << e.constant_value();
      break;
    case ExprKind::Symbol:
      os << e.symbol_name();
      break;
    case ExprKind::Add: {
      // Render `+ (-1)*x` as `- x`, and order positive terms before
      // negative ones so bounds read as "B - 1" rather than "-1 + B".
      struct Term {
        bool negative;
        Expr body;
      };
      std::vector<Term> terms;
      for (const Expr& op : e.operands()) {
        if (op.kind() == ExprKind::Mul && !op.operands().empty() &&
            op.operands()[0].is_constant() &&
            op.operands()[0].constant_value() < 0) {
          std::vector<Expr> rest(op.operands().begin(), op.operands().end());
          rest[0] = Expr(-rest[0].constant_value());
          Expr body = rest[0].is_constant(1) && rest.size() > 1
                          ? Expr::make(ExprKind::Mul,
                                       std::vector<Expr>(rest.begin() + 1,
                                                         rest.end()))
                          : Expr::make(ExprKind::Mul, std::move(rest));
          terms.push_back(Term{true, std::move(body)});
        } else if (op.is_constant() && op.constant_value() < 0) {
          terms.push_back(Term{true, Expr(-op.constant_value())});
        } else {
          terms.push_back(Term{false, op});
        }
      }
      std::stable_partition(terms.begin(), terms.end(),
                            [](const Term& t) { return !t.negative; });
      bool first = true;
      for (const Term& term : terms) {
        if (!first) {
          os << (term.negative ? " - " : " + ");
        } else if (term.negative) {
          os << '-';
        }
        first = false;
        print_expr(term.body, os, own + (term.negative ? 1 : 0));
      }
      break;
    }
    case ExprKind::Mul: {
      bool first = true;
      for (const Expr& op : e.operands()) {
        if (!first) os << '*';
        first = false;
        print_expr(op, os, own + 1);
      }
      break;
    }
    case ExprKind::FloorDiv:
      print_expr(e.operands()[0], os, own);
      os << " / ";
      print_expr(e.operands()[1], os, own + 1);
      break;
    case ExprKind::Mod:
      print_expr(e.operands()[0], os, own);
      os << " % ";
      print_expr(e.operands()[1], os, own + 1);
      break;
    case ExprKind::Pow:
      print_expr(e.operands()[0], os, own + 1);
      os << "**";
      print_expr(e.operands()[1], os, own + 1);
      break;
    case ExprKind::CeilDiv:
      os << "ceil_div(";
      print_expr(e.operands()[0], os, 0);
      os << ", ";
      print_expr(e.operands()[1], os, 0);
      os << ')';
      break;
    case ExprKind::Min:
    case ExprKind::Max:
      os << (e.kind() == ExprKind::Min ? "min(" : "max(");
      print_expr(e.operands()[0], os, 0);
      os << ", ";
      print_expr(e.operands()[1], os, 0);
      os << ')';
      break;
  }
  if (parens) os << ')';
}

}  // namespace

std::string Expr::to_string() const {
  std::ostringstream os;
  print_expr(*this, os, 0);
  return os.str();
}

// --- operators --------------------------------------------------------

Expr operator+(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Add, {a, b});
}

Expr operator-(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Add, {a, Expr::make(ExprKind::Mul, {-1, b})});
}

Expr operator-(const Expr& a) { return Expr::make(ExprKind::Mul, {-1, a}); }

Expr operator*(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Mul, {a, b});
}

Expr operator/(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::FloorDiv, {a, b});
}

Expr operator%(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Mod, {a, b});
}

Expr min(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Min, {a, b});
}

Expr max(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::Max, {a, b});
}

Expr ceil_div(const Expr& a, const Expr& b) {
  return Expr::make(ExprKind::CeilDiv, {a, b});
}

Expr pow(const Expr& base, const Expr& exponent) {
  return Expr::make(ExprKind::Pow, {base, exponent});
}

std::set<std::string> changed_symbols(const SymbolMap& before,
                                      const SymbolMap& after) {
  std::set<std::string> changed;
  // Both maps iterate in sorted name order; a single merge walk finds
  // every symbol present in only one binding or bound to different
  // values.
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    if (b == before.end()) {
      changed.insert(a->first);
      ++a;
    } else if (a == after.end()) {
      changed.insert(b->first);
      ++b;
    } else if (b->first < a->first) {
      changed.insert(b->first);
      ++b;
    } else if (a->first < b->first) {
      changed.insert(a->first);
      ++a;
    } else {
      if (b->second != a->second) changed.insert(b->first);
      ++b;
      ++a;
    }
  }
  return changed;
}

}  // namespace dmv::symbolic
