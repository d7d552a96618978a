#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "dmv/sim/trace_io.hpp"

namespace dmv::sim {

namespace {

// Container names are one whitespace-delimited token in the header
// line, so whitespace (and the escape character itself) must be
// escaped: `\s` space, `\t` tab, `\n` newline, `\r` CR, `\\` backslash,
// and `\e` for the empty name. Names without those characters are
// written verbatim, keeping pre-escaping files byte-identical.
std::string escape_name(const std::string& name) {
  bool needs_escape = name.empty();
  for (const char c : name) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\\') {
      needs_escape = true;
      break;
    }
  }
  if (!needs_escape) return name;
  if (name.empty()) return "\\e";
  std::string out;
  out.reserve(name.size() + 4);
  for (const char c : name) {
    switch (c) {
      case ' ': out += "\\s"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_name(const std::string& token, int line_number);

}  // namespace

void write_trace(const AccessTrace& trace, std::ostream& out) {
  out << "dmvtrace 1\n";
  for (std::size_t c = 0; c < trace.containers.size(); ++c) {
    const ConcreteLayout& layout = trace.layouts[c];
    out << "container " << escape_name(trace.containers[c]) << ' '
        << layout.element_size << ' ' << layout.base_address;
    for (std::int64_t extent : layout.shape) out << ' ' << extent;
    out << " ;";
    for (std::int64_t stride : layout.strides) out << ' ' << stride;
    out << '\n';
  }
  out << "events\n";
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const AccessEvent event = trace.events[i];
    out << i << ' ' << event.container << ' ' << event.flat << ' '
        << (event.is_write ? 'w' : 'r') << ' ' << event.execution << ' '
        << event.tasklet << '\n';
  }
  if (!out) throw std::runtime_error("write_trace: stream failure");
}

std::string trace_to_string(const AccessTrace& trace) {
  std::ostringstream out;
  write_trace(trace, out);
  return out.str();
}

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("read_trace: line " + std::to_string(line) +
                           ": " + message);
}

/// Whether the layout's last byte address, base_address +
/// allocated_bytes() - 1, fits int64, every step checked the way
/// checked_total_elements() checks its product. The metric engine maps
/// a container's bytes to cache lines with that arithmetic unchecked.
bool last_byte_fits(const ConcreteLayout& layout) {
  std::int64_t last = layout.start_offset;
  for (std::size_t d = 0; d < layout.shape.size(); ++d) {
    std::int64_t reach = 0;
    if (__builtin_mul_overflow(layout.shape[d] - 1, layout.strides[d],
                               &reach) ||
        __builtin_add_overflow(last, reach, &last)) {
      return false;
    }
  }
  std::int64_t bytes = 0;
  return !__builtin_add_overflow(last, 1, &last) &&
         !__builtin_mul_overflow(last, layout.element_size, &bytes) &&
         !__builtin_add_overflow(layout.base_address, bytes, &last) &&
         !__builtin_sub_overflow(last, 1, &last);
}

std::string unescape_name(const std::string& token, int line_number) {
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '\\') {
      out += token[i];
      continue;
    }
    if (i + 1 == token.size()) {
      fail(line_number, "dangling escape in container name");
    }
    switch (token[++i]) {
      case 's': out += ' '; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case '\\': out += '\\'; break;
      case 'e':
        if (token != "\\e") {
          fail(line_number, "'\\e' must be the whole container name");
        }
        break;
      default:
        fail(line_number, std::string("unknown escape '\\") + token[i] +
                              "' in container name");
    }
  }
  return out;
}

}  // namespace

AccessTrace read_trace(std::istream& in) {
  AccessTrace trace;
  std::string line;
  int line_number = 0;

  if (!std::getline(in, line)) fail(1, "empty input");
  ++line_number;
  if (line != "dmvtrace 1") fail(line_number, "bad magic/version");

  bool in_events = false;
  std::int64_t max_execution = -1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (!in_events) {
      if (line == "events") {
        in_events = true;
        continue;
      }
      std::istringstream fields(line);
      std::string keyword;
      fields >> keyword;
      if (keyword != "container") {
        fail(line_number, "expected 'container' or 'events'");
      }
      ConcreteLayout layout;
      std::string name_token;
      fields >> name_token >> layout.element_size >> layout.base_address;
      if (!fields) fail(line_number, "malformed container header");
      layout.name = unescape_name(name_token, line_number);
      std::string token;
      bool strides = false;
      while (fields >> token) {
        if (token == ";") {
          strides = true;
          continue;
        }
        try {
          const std::int64_t value = std::stoll(token);
          (strides ? layout.strides : layout.shape).push_back(value);
        } catch (const std::exception&) {
          fail(line_number, "bad integer '" + token + "'");
        }
      }
      if (layout.shape.size() != layout.strides.size()) {
        fail(line_number, "shape/strides rank mismatch");
      }
      if (layout.element_size <= 0) {
        fail(line_number, "bad element size");
      }
      if (!layout.checked_total_elements()) {
        fail(line_number, "negative extent or element count overflows int64");
      }
      // The metric engine finds a byte's line by division, which rounds
      // toward zero, and sizes a container's line range from its base
      // address up: a byte below address 0 or below the base would
      // share a line with another or fall outside the range.
      if (layout.base_address < 0) fail(line_number, "negative base address");
      for (const std::int64_t stride : layout.strides) {
        if (stride < 0) fail(line_number, "negative stride");
      }
      if (!last_byte_fits(layout)) {
        fail(line_number, "last byte address overflows int64");
      }
      trace.containers.push_back(layout.name);
      trace.layouts.push_back(std::move(layout));
      continue;
    }

    std::istringstream fields(line);
    AccessEvent event;
    std::int64_t time = 0;
    char mode = '?';
    std::int64_t container = 0;
    std::int64_t tasklet = 0;
    fields >> time >> container >> event.flat >> mode >> event.execution >>
        tasklet;
    if (!fields || (mode != 'r' && mode != 'w')) {
      fail(line_number, "malformed event");
    }
    // A trace stores no time: an event's time is its index.
    if (time != static_cast<std::int64_t>(trace.events.size())) {
      fail(line_number, "event time " + std::to_string(time) +
                            " is not its index " +
                            std::to_string(trace.events.size()));
    }
    if (container < 0 ||
        container >= static_cast<std::int64_t>(trace.layouts.size())) {
      fail(line_number, "container index out of range");
    }
    if (event.flat < 0 ||
        event.flat >= trace.layouts[container].total_elements()) {
      fail(line_number, "element index out of range");
    }
    if (tasklet < std::numeric_limits<ir::NodeId>::min() ||
        tasklet > std::numeric_limits<ir::NodeId>::max()) {
      fail(line_number, "tasklet id out of range");
    }
    // executions is the largest id plus one, which must fit int64.
    if (event.execution < 0 ||
        event.execution == std::numeric_limits<std::int64_t>::max()) {
      fail(line_number, "execution id out of range");
    }
    event.container = static_cast<std::int32_t>(container);
    event.is_write = mode == 'w';
    event.tasklet = static_cast<ir::NodeId>(tasklet);
    max_execution = std::max(max_execution, event.execution);
    trace.events.push_back(event);
  }
  if (!in_events) fail(line_number, "missing 'events' section");
  trace.executions = max_execution + 1;
  return trace;
}

AccessTrace trace_from_string(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

}  // namespace dmv::sim
