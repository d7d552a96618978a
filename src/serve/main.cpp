// dmv_serve — the line-delimited JSON analysis server (docs/serving.md).
//
// Transports:
//   dmv_serve                 stdio: one request line in, one response
//                             line out; exits on EOF or `shutdown`.
//   dmv_serve --port 7777     TCP on 127.0.0.1: one thread per
//                             connection, same line protocol; exits on
//                             `shutdown` from any client.
//
// Knobs:
//   --threads N               par::set_num_threads(N), N in [1, 1024];
//                             DMV_NUM_THREADS is the environment
//                             equivalent.
//   --cache-mb N              shared artifact tier budget (default 256).
//   --cache-dir PATH          persistent warm-start tier: metric
//                             artifacts are written to PATH and a
//                             restarted server re-serves them without
//                             re-simulating (docs/storage.md).
// A value that is not a whole decimal integer in range (--port in
// [0, 65535], --cache-mb whose byte count fits size_t) exits 2 with the
// usage line. --port 0 binds an ephemeral port; the listening line
// names the bound one.
//
// A request line longer than serve::kMaxRequestLineBytes gets one
// `request_too_large` error (Server::handle_oversized_line); the rest of
// it is read through its newline without being kept, and the stream
// goes on serving.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <list>
#include <string>
#include <thread>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dmv/par/par.hpp"
#include "dmv/serve/server.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--port N] [--threads N] [--cache-mb N] [--cache-dir PATH]\n";
  return 2;
}

// Parses all of `text` as a decimal integer in [lo, hi].
template <typename T>
bool parse_whole(const char* text, T lo, T hi, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [last, error] = std::from_chars(text, end, value);
  if (error != std::errc() || last != end || value < lo || value > hi) {
    return false;
  }
  out = value;
  return true;
}

// Writes all of `text` to `fd`, looping over short writes.
bool write_all(int fd, const std::string& text) {
  std::size_t written = 0;
  while (written < text.size()) {
    const ssize_t w = ::write(fd, text.data() + written, text.size() - written);
    if (w <= 0) return false;
    written += static_cast<std::size_t>(w);
  }
  return true;
}

// Reads newline-delimited requests from `in` and writes one response
// line per request to `out`, until end of input, a failed write or
// `shutdown`; a last line without a newline is handled too. A failure
// just ends the stream (sessions stay, and a TCP client may reconnect);
// the caller closes the descriptors. Each byte is scanned once, so a
// long line costs linear time. Only the current line is buffered, so a
// client that never sends a newline cannot grow it past
// serve::kMaxRequestLineBytes: a longer line is answered with
// `request_too_large` as soon as it is that long, and its remaining
// bytes are dropped.
void serve_stream(dmv::serve::Server& server, int in, int out) {
  std::string line;
  bool discarding = false;  // Inside a line already answered as too large.
  auto handle_line = [&] {
    const bool ok = line.empty() || write_all(out, server.handle(line) + "\n");
    line.clear();
    return ok && !server.shutting_down();
  };
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(in, chunk, sizeof(chunk));
    if (n <= 0) break;
    const char* data = chunk;
    std::size_t size = static_cast<std::size_t>(n);
    while (size > 0) {
      const char* newline =
          static_cast<const char*>(std::memchr(data, '\n', size));
      const std::size_t length =
          newline ? static_cast<std::size_t>(newline - data) : size;
      if (!discarding &&
          line.size() + length > dmv::serve::kMaxRequestLineBytes) {
        discarding = true;
        std::string().swap(line);
        if (!write_all(out, server.handle_oversized_line() + "\n")) return;
      }
      if (!discarding) line.append(data, length);
      if (!newline) break;
      data = newline + 1;
      size -= length + 1;
      if (discarding) {
        discarding = false;
      } else if (!handle_line()) {
        return;
      }
    }
  }
  if (!discarding) handle_line();
}

void run_stdio(dmv::serve::Server& server) {
  serve_stream(server, STDIN_FILENO, STDOUT_FILENO);
  server.shutdown();
}

int run_tcp(dmv::serve::Server& server, int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "dmv_serve: socket() failed\n";
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t length = sizeof(address);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) < 0 ||
      ::listen(listener, 64) < 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&address),
                    &length) < 0) {
    std::cerr << "dmv_serve: cannot listen on 127.0.0.1:" << port << "\n";
    ::close(listener);
    return 1;
  }
  std::cout << "dmv_serve: listening on 127.0.0.1:"
            << ntohs(address.sin_port) << "\n"
            << std::flush;
  // One thread per connection. A finished connection's thread is joined
  // and its socket closed on the next pass of the accept loop, so its
  // stack does not outlive it.
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  auto join = [&connections](bool unfinished_too) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (unfinished_too || it->done) {
        it->thread.join();
        ::close(it->fd);
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };
  while (!server.shutting_down()) {
    // Poll with a timeout so `shutdown` from one connection stops the
    // loop promptly. (A receive timeout on the listener would be
    // inherited by every accepted socket and drop idle clients.)
    pollfd listening{listener, POLLIN, 0};
    const int fd = ::poll(&listening, 1, 200) > 0
                       ? ::accept(listener, nullptr, nullptr)
                       : -1;
    join(false);
    if (fd < 0) continue;
    Connection& connection = connections.emplace_back();
    connection.fd = fd;
    connection.thread = std::thread([&server, &connection] {
      serve_stream(server, connection.fd, connection.fd);
      connection.done = true;
    });
  }
  ::close(listener);
  server.shutdown();
  // End the reads of clients still connected; a response being written
  // is not cut short.
  for (Connection& connection : connections) {
    ::shutdown(connection.fd, SHUT_RD);
  }
  join(true);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  dmv::serve::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--port") == 0 && has_value) {
      if (!parse_whole(argv[++i], 0, 65535, port)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--threads") == 0 && has_value) {
      int threads = 0;
      if (!parse_whole(argv[++i], 1, dmv::par::kMaxThreads, threads)) {
        return usage(argv[0]);
      }
      dmv::par::set_num_threads(threads);
    } else if (std::strcmp(arg, "--cache-mb") == 0 && has_value) {
      std::size_t megabytes = 0;
      if (!parse_whole(argv[++i], std::size_t{0},
                       std::numeric_limits<std::size_t>::max() >> 20,
                       megabytes)) {
        return usage(argv[0]);
      }
      config.shared_cache.budget_bytes = megabytes << 20;
    } else if (std::strcmp(arg, "--cache-dir") == 0 && has_value) {
      config.shared_cache.disk_dir = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  dmv::serve::Server server(config);
  if (port >= 0) return run_tcp(server, port);
  run_stdio(server);
  return 0;
}
