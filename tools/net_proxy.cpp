// net_proxy: a deterministic fault-injecting TCP relay for chaos tests.
//
// Sits between a netalign client and a netalign_server TCP listener and
// mangles the byte stream the way a bad network would, under a seeded
// RNG so every failure reproduces from its seed:
//
//   --split-prob      forward a random prefix of a buffered chunk per
//                     relay pass (byte-level write splits; the peer sees
//                     frames torn at arbitrary byte boundaries)
//   --delay-prob      hold a chunk for --delay-ms before forwarding
//   --rst-prob        mid-stream RST: SO_LINGER{1,0} + close on both
//                     sides, rolled per forwarded chunk
//   --blackhole-prob  rolled per accepted connection: swallow every
//                     client byte (ACKed but never forwarded) for
//                     --blackhole-ms, then RST. Bounded on purpose --
//                     the client's read eventually dies with a reset
//                     instead of hanging forever, so its retry policy
//                     gets to fire.
//
// All probabilities are per-roll in [0,1]. The relay itself is a single
// poll() loop, so fault timing interleaves with real socket readiness
// exactly once per pass -- no hidden threads, no extra nondeterminism
// beyond the kernel's own scheduling of the two real endpoints.
//
// Used by tools/check_netchaos.sh; exits 0 on SIGTERM/SIGINT.
//
// Example:
//   net_proxy --target tcp:127.0.0.1:4455 --seed 7 --rst-prob 0.05 &
//   netalign client ping --connect tcp:127.0.0.1:<printed port> ...
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "server/transport.hpp"
#include "util/cli.hpp"
#include "util/stop.hpp"

using namespace netalign;
using Clock = std::chrono::steady_clock;

namespace {

/// xorshift64: tiny, seedable, and plenty for fault dice.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed ? seed : 0x9e3779b97f4a7c15ULL) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  /// Uniform-ish double in [0,1).
  double roll() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }
  /// Uniform-ish size in [1, n].
  std::size_t upto(std::size_t n) {
    return n <= 1 ? n : 1 + static_cast<std::size_t>(next() % n);
  }
};

void rst_close(int fd) {
  if (fd < 0) return;
  // linger(on, 0s): close() discards unsent data and fires an RST
  // instead of the orderly FIN -- the "mid-stream reset" fault.
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  ::close(fd);
}

/// One direction of a relay: bytes read from `src` wait in `pending`
/// until the fault dice let them through to `dst`.
struct Pipe {
  std::string pending;
  Clock::time_point release{};  ///< delay fault: hold until this instant
  bool eof = false;             ///< src half-closed; flush then propagate
};

struct Relay {
  int client = -1;  ///< accepted side
  int server = -1;  ///< connection to --target
  Pipe up;          ///< client -> server
  Pipe down;        ///< server -> client
  bool blackhole = false;
  Clock::time_point blackhole_until{};
  bool dead = false;
};

constexpr std::size_t kPendingCap = 256u * 1024;

}  // namespace

int main(int argc, char** argv) try {
  CliParser cli(
      "net_proxy: seeded fault-injecting TCP relay for chaos testing.\n"
      "Forwards --listen <-> --target, rolling per-chunk faults.");
  auto& listen_spec = cli.add_string(
      "listen", "tcp:127.0.0.1:0",
      "endpoint to accept clients on (port 0 = ephemeral, printed)");
  auto& target_spec = cli.add_string(
      "target", "", "upstream server endpoint, e.g. tcp:127.0.0.1:4455");
  auto& seed = cli.add_int("seed", 1, "fault RNG seed (deterministic replay)");
  auto& split_prob = cli.add_double(
      "split-prob", 0.0, "chance a relay pass forwards only a random prefix");
  auto& delay_prob = cli.add_double(
      "delay-prob", 0.0, "chance a chunk is held for --delay-ms");
  auto& delay_ms = cli.add_int("delay-ms", 20, "hold time for delayed chunks");
  auto& rst_prob = cli.add_double(
      "rst-prob", 0.0, "chance a forwarded chunk RSTs the whole relay");
  auto& blackhole_prob = cli.add_double(
      "blackhole-prob", 0.0,
      "chance an accepted connection is black-holed (swallow, then RST)");
  auto& blackhole_ms = cli.add_int(
      "blackhole-ms", 250, "how long a black-holed connection swallows bytes");
  if (!cli.parse(argc, argv)) return 0;
  if (target_spec.empty()) {
    std::fprintf(stderr, "net_proxy: --target is required\n");
    return 2;
  }
  if (split_prob < 0 || split_prob > 1 || delay_prob < 0 || delay_prob > 1 ||
      rst_prob < 0 || rst_prob > 1 || blackhole_prob < 0 ||
      blackhole_prob > 1 || delay_ms < 0 || blackhole_ms < 0) {
    std::fprintf(stderr, "net_proxy: flag out of range\n");
    return 2;
  }

  std::string error;
  server::Endpoint listen_ep;
  server::Endpoint target_ep;
  if (!server::parse_endpoint(listen_spec, listen_ep, error) ||
      !server::parse_endpoint(target_spec, target_ep, error)) {
    std::fprintf(stderr, "net_proxy: %s\n", error.c_str());
    return 2;
  }
  server::Listener listener;
  if (!listener.open(listen_ep, error)) {
    std::fprintf(stderr, "net_proxy: %s\n", error.c_str());
    return 1;
  }
  std::printf("net_proxy: listening on %s (target %s, seed %lld)\n",
              listener.bound().str().c_str(), target_ep.str().c_str(),
              static_cast<long long>(seed));
  std::fflush(stdout);

  const std::atomic<bool>* stop = install_stop_signal_handlers();
  Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<Relay> relays;

  while (!stop->load(std::memory_order_relaxed)) {
    const auto now = Clock::now();
    std::vector<pollfd> fds;
    fds.push_back({listener.fd(), POLLIN, 0});
    for (Relay& r : relays) {
      short cev = 0;
      short sev = 0;
      if (!r.up.eof && r.up.pending.size() < kPendingCap) cev |= POLLIN;
      if (!r.down.pending.empty() && now >= r.down.release) cev |= POLLOUT;
      if (!r.down.eof && r.down.pending.size() < kPendingCap) sev |= POLLIN;
      if (!r.up.pending.empty() && now >= r.up.release && !r.blackhole) {
        sev |= POLLOUT;
      }
      fds.push_back({r.client, cev, 0});
      fds.push_back({r.server, sev, 0});
    }
    // Short tick so delay releases and blackhole deadlines fire promptly
    // even when no fd turns ready.
    const int n = ::poll(fds.data(), fds.size(), 20);
    if (n < 0 && errno != EINTR) break;

    // Relays accepted below have no pollfd entries until the next pass;
    // service only the ones that were polled.
    const std::size_t polled = relays.size();
    if ((fds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listener.fd(), nullptr, nullptr);
        if (cfd < 0) break;
        std::string connect_error;
        const int sfd = server::connect_endpoint(target_ep, connect_error);
        if (sfd < 0) {
          // Upstream down: the client sees an RST, which is exactly what
          // a half-dead network gives it.
          std::fprintf(stderr, "net_proxy: upstream connect failed: %s\n",
                       connect_error.c_str());
          rst_close(cfd);
          continue;
        }
        server::set_nonblocking(cfd);
        server::set_nonblocking(sfd);
        Relay r;
        r.client = cfd;
        r.server = sfd;
        if (rng.roll() < blackhole_prob) {
          r.blackhole = true;
          r.blackhole_until =
              Clock::now() + std::chrono::milliseconds(blackhole_ms);
        }
        relays.push_back(std::move(r));
      }
    }

    std::size_t idx = 1;
    for (std::size_t i = 0; i < polled; ++i) {
      Relay& r = relays[i];
      const pollfd& cp = fds[idx++];
      const pollfd& sp = fds[idx++];
      if (r.dead) continue;
      const auto pass = Clock::now();

      auto read_into = [&](int fd, Pipe& pipe, short revents) {
        if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) return true;
        char chunk[65536];
        const ssize_t got = ::read(fd, chunk, sizeof(chunk));
        if (got > 0) {
          pipe.pending.append(chunk, static_cast<std::size_t>(got));
          if (rng.roll() < delay_prob) {
            pipe.release = pass + std::chrono::milliseconds(delay_ms);
          }
          return true;
        }
        if (got == 0) {
          pipe.eof = true;
          return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          return true;
        }
        return false;  // reset under us; tear the relay down
      };

      auto flush = [&](int dst, Pipe& pipe, bool faulted) {
        if (pipe.pending.empty() || pass < pipe.release) return 1;
        if (faulted && rng.roll() < rst_prob) return -1;
        std::size_t len = pipe.pending.size();
        if (faulted && rng.roll() < split_prob) len = rng.upto(len);
        const ssize_t sent =
            ::send(dst, pipe.pending.data(), len, MSG_NOSIGNAL);
        if (sent > 0) {
          pipe.pending.erase(0, static_cast<std::size_t>(sent));
          return 1;
        }
        if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          return 0;  // peer gone
        }
        return 1;
      };

      bool alive = read_into(r.client, r.up, cp.revents) &&
                   read_into(r.server, r.down, sp.revents);
      if (alive && r.blackhole) {
        // Swallow silently: the bytes were ACKed at the TCP layer but
        // never reach the server. After the deadline, reset the client
        // so its next read fails instead of blocking forever.
        r.up.pending.clear();
        if (pass >= r.blackhole_until) alive = false;
      }
      if (alive) {
        const int fup = r.blackhole ? 1 : flush(r.server, r.up, true);
        // Responses flow unfaulted by split/rst here; the dice already
        // rolled on the request path and the delay fault (stamped at
        // read time) applies to both directions.
        const int fdown = flush(r.client, r.down, false);
        if (fup == -1 || fdown == -1) {
          alive = false;  // RST fault fired
        } else if (fup == 0 || fdown == 0) {
          alive = false;
        }
      }
      if (alive && r.up.eof && r.up.pending.empty() &&
          r.down.eof && r.down.pending.empty()) {
        // Both sides done and drained: orderly close, no RST.
        ::close(r.client);
        ::close(r.server);
        r.client = r.server = -1;
        r.dead = true;
        continue;
      }
      if (alive && r.up.eof && r.up.pending.empty()) {
        ::shutdown(r.server, SHUT_WR);
      }
      if (alive && r.down.eof && r.down.pending.empty()) {
        ::shutdown(r.client, SHUT_WR);
      }
      if (!alive) {
        rst_close(r.client);
        rst_close(r.server);
        r.client = r.server = -1;
        r.dead = true;
      }
    }
    relays.erase(std::remove_if(relays.begin(), relays.end(),
                                [](const Relay& r) { return r.dead; }),
                 relays.end());
  }

  for (Relay& r : relays) {
    rst_close(r.client);
    rst_close(r.server);
  }
  std::printf("net_proxy: exiting\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "net_proxy: error: %s\n", e.what());
  return 1;
}
