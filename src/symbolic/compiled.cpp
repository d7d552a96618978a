#include "dmv/symbolic/compiled.hpp"

#include <algorithm>

namespace dmv::symbolic {

int SymbolTable::intern(const std::string& name) {
  return intern(intern_symbol(name));
}

int SymbolTable::intern(SymbolId id) {
  auto [it, inserted] = slots_.emplace(id, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(symbol_name_of(id));
  return it->second;
}

int SymbolTable::lookup(const std::string& name) const {
  const std::optional<SymbolId> id = find_symbol(name);
  return id.has_value() ? lookup(*id) : -1;
}

int SymbolTable::lookup(SymbolId id) const {
  auto it = slots_.find(id);
  return it == slots_.end() ? -1 : it->second;
}

void SymbolTable::bind(const SymbolMap& symbols,
                       std::vector<std::int64_t>& values,
                       std::vector<char>& bound) const {
  values.assign(names_.size(), 0);
  bound.assign(names_.size(), 0);
  for (const auto& [name, value] : symbols) {
    const int slot = lookup(name);
    if (slot < 0) continue;
    values[slot] = value;
    bound[slot] = 1;
  }
}

CompiledExpr::CompiledExpr() {
  code_.push_back({Op::PushConst, 0});
}

// Postfix emission: operands first (left to right), then the operator —
// the same evaluation order as the recursive tree walk, so exceptions
// (unbound symbol, division by zero) fire in the same place.
CompiledExpr CompiledExpr::compile(const Expr& expr, SymbolTable& table) {
  // Expressions are interned, so one pointer-keyed lookup recognizes any
  // expression this table has compiled before — slot assignment is
  // append-only, making the cached code permanently valid.
  const ExprNode* memo_key = &expr.node();
  if (auto it = table.memo_.find(memo_key); it != table.memo_.end()) {
    return *it->second;
  }

  CompiledExpr compiled;
  compiled.code_.clear();

  // Iterative postfix flattening (explicit stack; expressions are small
  // but recursion depth is an external input).
  struct Frame {
    const Expr* expr;
    std::size_t next_operand = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({&expr});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const ExprNode& node = frame.expr->node();
    const auto operands = frame.expr->operands();
    if (frame.next_operand < operands.size()) {
      stack.push_back({&operands[frame.next_operand++]});
      continue;
    }
    switch (node.kind) {
      case ExprKind::Constant:
        compiled.code_.push_back({Op::PushConst, node.value});
        break;
      case ExprKind::Symbol:
        compiled.code_.push_back(
            {Op::PushSlot, table.intern(node.sym)});
        break;
      case ExprKind::Add:
        compiled.code_.push_back(
            {Op::Add, static_cast<std::int64_t>(operands.size())});
        break;
      case ExprKind::Mul:
        compiled.code_.push_back(
            {Op::Mul, static_cast<std::int64_t>(operands.size())});
        break;
      case ExprKind::FloorDiv:
        compiled.code_.push_back({Op::FloorDiv, 0});
        break;
      case ExprKind::CeilDiv:
        compiled.code_.push_back({Op::CeilDiv, 0});
        break;
      case ExprKind::Mod:
        compiled.code_.push_back({Op::Mod, 0});
        break;
      case ExprKind::Min:
        compiled.code_.push_back({Op::Min, 0});
        break;
      case ExprKind::Max:
        compiled.code_.push_back({Op::Max, 0});
        break;
      case ExprKind::Pow:
        compiled.code_.push_back({Op::Pow, 0});
        break;
    }
    stack.pop_back();
  }

  // Referenced slots (deduplicated) and the stack high-water mark.
  int depth = 0;
  int max_depth = 0;
  for (const Inst& inst : compiled.code_) {
    switch (inst.op) {
      case Op::PushConst:
        ++depth;
        break;
      case Op::PushSlot:
        compiled.slots_.push_back(static_cast<int>(inst.arg));
        ++depth;
        break;
      case Op::Add:
      case Op::Mul:
        depth -= static_cast<int>(inst.arg) - 1;
        break;
      default:
        --depth;  // Binary: pops two, pushes one.
        break;
    }
    max_depth = std::max(max_depth, depth);
  }
  compiled.max_stack_ = std::max(max_depth, 1);
  std::sort(compiled.slots_.begin(), compiled.slots_.end());
  compiled.slots_.erase(
      std::unique(compiled.slots_.begin(), compiled.slots_.end()),
      compiled.slots_.end());
  if (table.memo_.size() >= SymbolTable::kCompileMemoCap) {
    table.memo_.clear();
  }
  table.memo_.emplace(memo_key, std::make_shared<const CompiledExpr>(compiled));
  return compiled;
}

bool CompiledExpr::reads_any(const std::vector<int>& query) const {
  for (int slot : slots_) {
    if (std::find(query.begin(), query.end(), slot) != query.end()) {
      return true;
    }
  }
  return false;
}

namespace {

constexpr int kInlineStack = 32;

}  // namespace

std::int64_t CompiledExpr::evaluate(
    const std::int64_t* values, const char* bound,
    const std::vector<std::string>* names) const {
  std::int64_t inline_stack[kInlineStack];
  // code_ is never empty, so the loop always writes the slot `return
  // stack[0]` reads; GCC 12 cannot see that (-Wmaybe-uninitialized).
  inline_stack[0] = 0;
  std::vector<std::int64_t> heap_stack;
  std::int64_t* stack = inline_stack;
  if (max_stack_ > kInlineStack) {
    heap_stack.resize(max_stack_);
    stack = heap_stack.data();
  }
  std::size_t top = 0;  // Next free stack position.
  for (const Inst& inst : code_) {
    switch (inst.op) {
      case Op::PushConst:
        stack[top++] = inst.arg;
        break;
      case Op::PushSlot: {
        const int slot = static_cast<int>(inst.arg);
        if (bound != nullptr && !bound[slot]) {
          throw UnboundSymbolError(
              names != nullptr ? (*names)[slot]
                               : "slot " + std::to_string(slot));
        }
        stack[top++] = values[slot];
        break;
      }
      case Op::Add: {
        const std::size_t n = static_cast<std::size_t>(inst.arg);
        std::int64_t acc = 0;
        for (std::size_t i = top - n; i < top; ++i) acc += stack[i];
        top -= n;
        stack[top++] = acc;
        break;
      }
      case Op::Mul: {
        const std::size_t n = static_cast<std::size_t>(inst.arg);
        std::int64_t acc = 1;
        for (std::size_t i = top - n; i < top; ++i) acc *= stack[i];
        top -= n;
        stack[top++] = acc;
        break;
      }
      case Op::FloorDiv: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = floor_div_i64(stack[top - 1], b);
        break;
      }
      case Op::CeilDiv: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = ceil_div_i64(stack[top - 1], b);
        break;
      }
      case Op::Mod: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = mod_i64(stack[top - 1], b);
        break;
      }
      case Op::Min: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = std::min(stack[top - 1], b);
        break;
      }
      case Op::Max: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = std::max(stack[top - 1], b);
        break;
      }
      case Op::Pow: {
        const std::int64_t b = stack[--top];
        stack[top - 1] = pow_i64(stack[top - 1], b);
        break;
      }
    }
  }
  return stack[0];
}

}  // namespace dmv::symbolic
