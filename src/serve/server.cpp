#include "serve/server.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <optional>
#include <sstream>

#include "app/version.h"
#include "core/acquire.h"
#include "logic/simd/kernel_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/errors.h"
#include "util/log.h"

namespace glva::serve {

namespace {

std::size_t resolve_jobs(std::size_t jobs) {
  return jobs != 0 ? jobs : exec::ThreadPool::hardware_threads();
}

AdmissionController::Options admission_options(const ServerOptions& options,
                                               std::size_t pool_threads) {
  AdmissionController::Options admission;
  admission.max_active =
      options.max_active != 0 ? options.max_active : pool_threads;
  admission.max_queued = options.max_queued;
  return admission;
}

/// Hex content address for response metadata and logs.
std::string fingerprint_hex(std::uint64_t fingerprint) {
  constexpr const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return out;
}

void split_listen_addr(const std::string& addr, std::string& host,
                       std::string& port) {
  const auto pos = addr.rfind(':');
  if (pos == std::string::npos || pos + 1 == addr.size()) {
    throw InvalidArgument("serve: --listen expects host:port, got '" + addr +
                          "'");
  }
  host = addr.substr(0, pos);
  port = addr.substr(pos + 1);
}

int bind_tcp(const std::string& addr, std::uint16_t& bound_port) {
  std::string host;
  std::string port;
  split_listen_addr(addr, host, port);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (host.empty()) hints.ai_flags = AI_PASSIVE;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &results);
  if (rc != 0) {
    throw Error("serve: cannot resolve '" + addr +
                "': " + ::gai_strerror(rc));
  }
  // Prefer IPv4 when both families resolve (stable, simple reporting).
  const addrinfo* chosen = nullptr;
  for (const addrinfo* it = results; it != nullptr; it = it->ai_next) {
    if (it->ai_family == AF_INET) {
      chosen = it;
      break;
    }
    if (chosen == nullptr) chosen = it;
  }
  int fd = -1;
  std::string error;
  if (chosen != nullptr) {
    fd = ::socket(chosen->ai_family, chosen->ai_socktype,
                  chosen->ai_protocol);
    if (fd >= 0) {
      const int enable = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
      if (::bind(fd, chosen->ai_addr, chosen->ai_addrlen) != 0 ||
          ::listen(fd, 64) != 0) {
        error = std::strerror(errno);
        ::close(fd);
        fd = -1;
      }
    } else {
      error = std::strerror(errno);
    }
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    throw Error("serve: cannot listen on '" + addr + "': " +
                (error.empty() ? "no usable address" : error));
  }
  sockaddr_storage bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    if (bound.ss_family == AF_INET) {
      bound_port =
          ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      bound_port =
          ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
    }
  }
  return fd;
}

int bind_unix(const std::string& path) {
  sockaddr_un address{};
  if (path.size() >= sizeof(address.sun_path)) {
    throw InvalidArgument("serve: unix socket path too long: " + path);
  }
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw Error(std::string("serve: cannot create unix socket: ") +
                std::strerror(errno));
  }
  // Replace a stale socket file from a previous run; a live daemon on the
  // same path would have to be stopped first anyway.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    throw Error("serve: cannot listen on unix socket '" + path +
                "': " + error);
  }
  return fd;
}

/// One latency histogram per wire op, interned once. Unknown op names
/// share a bucket: dispatch rejects them anyway, so all that lands there
/// is the (cheap) rejection path.
obs::Histogram& latency_histogram_for(const std::string& op) {
  if (op == "verify") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.verify");
    return h;
  }
  if (op == "analyze") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.analyze");
    return h;
  }
  if (op == "ensemble") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.ensemble");
    return h;
  }
  if (op == "sweep") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.sweep");
    return h;
  }
  if (op == "check") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.check");
    return h;
  }
  if (op == "status" || op == "version" || op == "stats") {
    static obs::Histogram& h = obs::histogram("serve.latency_us.introspect");
    return h;
  }
  static obs::Histogram& h = obs::histogram("serve.latency_us.other");
  return h;
}

ErrorKind kind_of(const Error& error) {
  if (dynamic_cast<const InvalidArgument*>(&error) != nullptr) {
    return ErrorKind::kInvalidArgument;
  }
  if (dynamic_cast<const ValidationError*>(&error) != nullptr) {
    return ErrorKind::kValidation;
  }
  if (dynamic_cast<const ParseError*>(&error) != nullptr) {
    return ErrorKind::kParse;
  }
  if (dynamic_cast<const SimulationError*>(&error) != nullptr) {
    return ErrorKind::kSimulation;
  }
  if (dynamic_cast<const StorageError*>(&error) != nullptr) {
    return ErrorKind::kStorage;
  }
  return ErrorKind::kInternal;
}

}  // namespace

Server::Server(const ServerOptions& options)
    : options_(options),
      pool_(resolve_jobs(options.jobs)),
      runner_(pool_),
      admission_(admission_options(options, pool_.thread_count())),
      cache_(options.cache_bytes) {}

Server::~Server() { stop(); }

void Server::start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (started_) return;
  if (options_.listen_addr.empty() && options_.unix_path.empty()) {
    throw InvalidArgument(
        "serve: configure at least one listener (--listen host:port and/or "
        "--unix path)");
  }
  if (!options_.unix_path.empty()) unix_fd_ = bind_unix(options_.unix_path);
  if (!options_.listen_addr.empty()) {
    try {
      tcp_fd_ = bind_tcp(options_.listen_addr, tcp_port_);
    } catch (...) {
      if (unix_fd_ >= 0) {
        ::close(unix_fd_);
        ::unlink(options_.unix_path.c_str());
        unix_fd_ = -1;
      }
      throw;
    }
  }
  running_.store(true);
  started_ = true;
  // Each accept thread gets its listener by value: stop() resets the
  // members while the threads may still be starting up.
  if (unix_fd_ >= 0) {
    accept_threads_.emplace_back([this, fd = unix_fd_] { accept_loop(fd); });
  }
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });
  }
}

void Server::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!started_) return;
  running_.store(false);
  admission_.close();
  // Closing a listener makes its blocked accept() fail, ending the loop.
  if (unix_fd_ >= 0) {
    ::shutdown(unix_fd_, SHUT_RDWR);
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::shutdown(tcp_fd_, SHUT_RDWR);
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  for (auto& thread : accept_threads_) thread.join();
  accept_threads_.clear();
  {
    // Wake connections blocked in recv(); shutdown (not close) so a
    // concurrently finishing connection thread cannot race an fd reuse.
    std::unique_lock<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    // Drain: in-flight requests run to completion before we return.
    conn_drained_.wait(lock, [this] { return open_connections_ == 0; });
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  started_ = false;
}

void Server::accept_loop(int listen_fd) {
  while (running_.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed (shutdown) or fatal: end the loop
    }
    if (!running_.load()) {
      ::close(fd);
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.insert(fd);
      ++open_connections_;
    }
    // Detached: lifetime is tracked by open_connections_, which stop()
    // waits on; the thread's last touch of the Server is the notify below.
    std::thread([this, fd] {
      serve_connection(fd);
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.erase(fd);
      ::close(fd);
      --open_connections_;
      conn_drained_.notify_all();
    }).detach();
  }
}

bool Server::send_frame(int fd, const std::string& payload) {
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Server::serve_connection(int fd) {
  FrameDecoder decoder(options_.max_frame_bytes);
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n == 0) return;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    try {
      decoder.feed(buffer, static_cast<std::size_t>(n));
      while (auto frame = decoder.take_frame()) {
        if (!send_frame(fd, dispatch(*frame))) return;
      }
    } catch (const ProtocolError& e) {
      // Framing is broken — there is no way to resynchronize the stream,
      // so answer once and hang up.
      static_cast<void>(
          send_frame(fd, render_error_response(Json::null(),
                                               ErrorKind::kProtocol,
                                               e.what())));
      return;
    }
  }
}

std::string Server::dispatch(const std::string& payload) {
  WireRequest wire;
  try {
    wire = parse_wire_request(parse_json(payload));
  } catch (const ProtocolError& e) {
    return render_error_response(Json::null(), ErrorKind::kProtocol,
                                 e.what());
  }
  ++requests_received_;
  static obs::Counter& received = obs::counter("serve.requests.received");
  received.increment();
  const obs::ScopedLatency latency(latency_histogram_for(wire.op));
  try {
    if (wire.op == "status") {
      return render_result_response(wire.id, status_json());
    }
    if (wire.op == "stats") {
      // The document --metrics-out writes, led by metrics_enabled; its
      // sections are present (empty) under GLVA_NO_METRICS too.
      Json stats = parse_json(obs::render_json(obs::snapshot()));
      stats.object.insert(
          stats.object.begin(),
          {"metrics_enabled", Json::of(obs::metrics_enabled())});
      return render_result_response(wire.id, std::move(stats));
    }
    if (wire.op == "version") {
      return render_ok_response(wire.id, 0, app::version_report(),
                                /*cached=*/false, "");
    }
    const app::Request::Op op = app::parse_op(wire.op);
    if (wire.target.empty()) {
      throw ProtocolError("op '" + wire.op + "' needs a 'target' member");
    }
    return handle_analysis(wire, op);
  } catch (const ProtocolError& e) {
    return render_error_response(wire.id, ErrorKind::kProtocol, e.what());
  } catch (const Error& e) {
    return render_error_response(wire.id, kind_of(e), e.what());
  } catch (const std::exception& e) {
    return render_error_response(wire.id, ErrorKind::kInternal, e.what());
  }
}

std::string Server::handle_analysis(const WireRequest& wire,
                                    app::Request::Op op) {
  const app::Request request =
      app::parse_request(op, wire.target, wire.options);
  const std::string key = app::canonical_key(request);
  const std::string fingerprint =
      fingerprint_hex(app::request_fingerprint(request));

  // A request that archives must execute: its .glvt files are part of what
  // it asks for, and a cached body writes none of them. It coalesces only
  // with requests archiving the same way into the same directory; its
  // body still fills the cache for everyone else.
  const bool archives = core::writes_archive(request.config);
  std::string flight_key = key;
  if (archives) {
    flight_key += std::string("archive=") +
                  store::sink_kind_name(request.config.sink) + ':' +
                  request.config.spill_dir;
  } else if (const auto hit = cache_.get(key)) {
    return render_ok_response(wire.id, hit->exit_code, hit->body,
                              /*cached=*/true, fingerprint);
  }

  // Single-flight: concurrent identical requests elect a leader; the rest
  // wait on its InFlight record instead of repeating the execution.
  std::shared_ptr<InFlight> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    auto& slot = inflight_[flight_key];
    if (slot == nullptr) {
      slot = std::make_shared<InFlight>();
      leader = true;
    }
    flight = slot;
  }

  if (!leader) {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->done_cv.wait(lock, [&] { return flight->done; });
    ++requests_coalesced_;
    static obs::Counter& coalesced = obs::counter("serve.requests.coalesced");
    coalesced.increment();
    if (flight->ok) {
      return render_ok_response(wire.id, flight->exit_code, flight->body,
                                /*cached=*/true, fingerprint);
    }
    return render_error_response(wire.id, flight->error_kind,
                                 flight->error_message);
  }

  // Leader: take an admission slot (bounded queue; may reject), execute
  // through the shared CLI path on the persistent pool, publish.
  bool ok = false;
  int exit_code = 0;
  std::string body;
  Json trace_events;
  bool have_trace = false;
  ErrorKind error_kind = ErrorKind::kInternal;
  std::string error_message;
  {
    const auto ticket = admission_.try_admit();
    if (!ticket.has_value()) {
      error_kind = running_.load() ? ErrorKind::kOverloaded
                                   : ErrorKind::kShuttingDown;
      error_message = running_.load()
                          ? "request rejected: admission queue is full"
                          : "server is shutting down";
    } else {
      // A traced execution holds trace_mutex_ so two traced requests
      // cannot interleave their drains. Untraced requests executing
      // concurrently still emit spans into the window (tracing is a
      // process-global switch); their events show up under their own
      // tids, which the trace viewer renders as separate rows.
      std::optional<std::unique_lock<std::mutex>> trace_lock;
      if (wire.trace) {
        trace_lock.emplace(trace_mutex_);
        static_cast<void>(obs::drain_trace());  // drop stale events
        obs::trace_begin();
      }
      try {
        app::ExecutionContext context;
        context.runner = &runner_;
        const app::Response response = app::execute(request, context, {});
        ok = true;
        exit_code = response.exit_code;
        body = response.body;
        ++requests_executed_;
        static obs::Counter& executed =
            obs::counter("serve.requests.executed");
        executed.increment();
        cache_.put(key, exit_code, body);
      } catch (const Error& e) {
        error_kind = kind_of(e);
        error_message = e.what();
      } catch (const std::exception& e) {
        error_message = e.what();
      }
      if (wire.trace) {
        obs::trace_end();
        trace_events =
            parse_json(obs::render_chrome_trace(obs::drain_trace()));
        have_trace = ok;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->done = true;
    flight->ok = ok;
    flight->exit_code = exit_code;
    flight->body = body;
    flight->error_kind = error_kind;
    flight->error_message = error_message;
    flight->done_cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(flight_key);
  }

  if (ok) {
    return render_ok_response(wire.id, exit_code, body, /*cached=*/false,
                              fingerprint,
                              have_trace ? &trace_events : nullptr);
  }
  return render_error_response(wire.id, error_kind, error_message);
}

Json Server::status_json() const {
  const ResultCache::Stats cache = cache_.stats();
  const AdmissionController::Stats admission = admission_.stats();
  return Json::object_of({
      {"version", Json::of(app::version_string())},
      {"simd_active",
       Json::of(logic::simd::isa_level_name(logic::simd::active_level()))},
      {"jobs", Json::of_u64(pool_.thread_count())},
      {"requests",
       Json::object_of({
           {"received", Json::of_u64(requests_received_.load())},
           {"executed", Json::of_u64(requests_executed_.load())},
           {"coalesced", Json::of_u64(requests_coalesced_.load())},
       })},
      {"cache",
       Json::object_of({
           {"hits", Json::of_u64(cache.hits)},
           {"misses", Json::of_u64(cache.misses)},
           {"insertions", Json::of_u64(cache.insertions)},
           {"evictions", Json::of_u64(cache.evictions)},
           {"entries", Json::of_u64(cache.entries)},
           {"bytes", Json::of_u64(cache.bytes)},
           {"capacity_bytes", Json::of_u64(cache.capacity_bytes)},
       })},
      {"admission",
       Json::object_of({
           {"admitted", Json::of_u64(admission.admitted)},
           {"rejected", Json::of_u64(admission.rejected)},
           {"completed", Json::of_u64(admission.completed)},
           {"active", Json::of_u64(admission.active)},
           {"queued", Json::of_u64(admission.queued)},
           {"peak_queued", Json::of_u64(admission.peak_queued)},
       })},
  });
}

int run_serve(const ServerOptions& options, std::ostream& out,
              std::ostream& err) {
  // The daemon's diagnostics (periodic stats lines, the final metrics
  // dump) go through util::log, routed to the caller's error stream.
  util::set_log_sink(&err);

  // Block the shutdown signals *before* any server thread exists so every
  // thread inherits the mask; the main thread then collects the signal
  // synchronously with sigwait — no async-signal-safety contortions.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  sigset_t previous;
  pthread_sigmask(SIG_BLOCK, &signals, &previous);

  int exit_code = 0;
  try {
    Server server(options);
    server.start();
    if (!server.unix_socket_path().empty()) {
      out << "glva serve: listening on " << server.unix_socket_path()
          << " (unix)\n";
    }
    if (!options.listen_addr.empty()) {
      out << "glva serve: listening on " << options.listen_addr;
      if (server.tcp_port() != 0) out << " (port " << server.tcp_port() << ")";
      out << " (tcp)\n";
    }
    out << "glva serve: pool " << server.pool_threads() << " thread(s), cache "
        << (options.cache_bytes >> 20) << " MiB; SIGTERM to stop\n";
    out.flush();

    // Optional stats reporter: one summary line per interval on the log
    // sink, so a long-lived daemon's health is visible without a client.
    std::mutex reporter_mutex;
    std::condition_variable reporter_cv;
    bool reporter_stop = false;
    std::thread reporter;
    if (options.stats_interval_seconds > 0) {
      reporter = std::thread([&] {
        std::unique_lock<std::mutex> lock(reporter_mutex);
        for (;;) {
          const bool stopping = reporter_cv.wait_for(
              lock, std::chrono::seconds(options.stats_interval_seconds),
              [&] { return reporter_stop; });
          if (stopping) return;
          const ResultCache::Stats cache = server.cache_stats();
          const AdmissionController::Stats admission =
              server.admission_stats();
          std::ostringstream line;
          line << "serve: executed " << admission.admitted << ", cache "
               << cache.hits << "/" << (cache.hits + cache.misses)
               << " hit(s), coalesced " << server.coalesced_requests()
               << ", rejected " << admission.rejected << ", active "
               << admission.active << ", queued " << admission.queued;
          util::log_info(line.str());
        }
      });
    }

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    out << "glva serve: caught "
        << (signal_number == SIGTERM ? "SIGTERM" : "SIGINT")
        << ", draining\n";
    out.flush();
    if (reporter.joinable()) {
      {
        const std::lock_guard<std::mutex> lock(reporter_mutex);
        reporter_stop = true;
      }
      reporter_cv.notify_all();
      reporter.join();
    }
    server.stop();

    const ResultCache::Stats cache = server.cache_stats();
    const AdmissionController::Stats admission = server.admission_stats();
    out << "glva serve: " << admission.admitted << " executed, "
        << cache.hits << " cache hit(s), " << server.coalesced_requests()
        << " coalesced, " << admission.rejected << " rejected, "
        << cache.evictions << " eviction(s)\n";
    if (obs::metrics_enabled()) {
      util::log_info("final metrics snapshot:");
      err << obs::render_text(obs::snapshot());
      err.flush();
    }
  } catch (...) {
    pthread_sigmask(SIG_SETMASK, &previous, nullptr);
    util::set_log_sink(nullptr);
    throw;
  }
  pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  util::set_log_sink(nullptr);
  return exit_code;
}

}  // namespace glva::serve
