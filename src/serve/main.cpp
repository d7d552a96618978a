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
//   --threads N               par::set_num_threads(N); DMV_NUM_THREADS
//                             is the environment equivalent.
//   --cache-mb N              shared artifact tier budget (default 256).
//   --cache-dir PATH          persistent warm-start tier: metric
//                             artifacts are written to PATH and a
//                             restarted server re-serves them without
//                             re-simulating (docs/storage.md).

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
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

void run_stdio(dmv::serve::Server& server) {
  std::string line;
  while (!server.shutting_down() && std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::cout << server.handle(line) << "\n" << std::flush;
  }
  server.shutdown();
}

// Reads newline-delimited requests from one accepted connection and
// writes one response line per request. Short writes are looped;
// failure just ends the connection (the session state stays — the
// client may reconnect).
void serve_connection(dmv::serve::Server& server, int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = buffer.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = buffer.substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      std::string response = server.handle(line);
      response += '\n';
      std::size_t written = 0;
      while (written < response.size()) {
        const ssize_t w = ::write(fd, response.data() + written,
                                  response.size() - written);
        if (w <= 0) {
          ::close(fd);
          return;
        }
        written += static_cast<std::size_t>(w);
      }
    }
    buffer.erase(0, start);
    if (server.shutting_down()) break;
  }
  ::close(fd);
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
  if (::bind(listener, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) < 0 ||
      ::listen(listener, 64) < 0) {
    std::cerr << "dmv_serve: cannot listen on 127.0.0.1:" << port << "\n";
    ::close(listener);
    return 1;
  }
  std::cout << "dmv_serve: listening on 127.0.0.1:" << port << "\n"
            << std::flush;
  std::vector<std::thread> connections;
  while (!server.shutting_down()) {
    // Poll accept with a timeout so `shutdown` from one connection
    // stops the accept loop promptly.
    timeval tv{};
    tv.tv_sec = 0;
    tv.tv_usec = 200 * 1000;
    ::setsockopt(listener, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    connections.emplace_back(
        [&server, fd] { serve_connection(server, fd); });
  }
  ::close(listener);
  server.shutdown();
  for (std::thread& connection : connections) connection.join();
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
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(arg, "--threads") == 0 && has_value) {
      dmv::par::set_num_threads(std::atoi(argv[++i]));
    } else if (std::strcmp(arg, "--cache-mb") == 0 && has_value) {
      config.shared_cache.budget_bytes =
          static_cast<std::size_t>(std::atoll(argv[++i])) << 20;
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
