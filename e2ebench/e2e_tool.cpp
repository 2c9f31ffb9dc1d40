// e2e_tool — the compiled half of the end-to-end benchmark (run.py drives it).
//
//   e2e_tool drive  --port P --conns N --blocks FILE --schedule FILE
//                   --seconds S --min-requests D --out FILE --responses FILE
//                   [--wrap] [--spans FILE] [--cpu-pid PID]
//       Closed-loop load generator: N loopback connections to a running
//       sasynthd, each sending its next request only after the previous
//       response's `end` line arrived. Requests are taken in schedule order
//       (indices into the block file). Latency runs from the first request
//       byte written to the `end` line read. With --spans every request gets
//       client-side spans (request, send, wait, recv), kept in memory and
//       written at exit. With --cpu-pid the daemon's /proc CPU ticks are
//       sampled every 50 ms, so CPU can be split by round.
//
//   e2e_tool replay --blocks FILE --sequence FILE --responses FILE
//                   --cache-dir DIR --spans FILE --stats FILE
//                   [--hot]
//       In-process replay of the requests a daemon answered. Wraps a span
//       around each public call SynthServer::handle/handle_deploy makes, in
//       the same order, on a private DesignCache/SweepCache; checks the
//       result against the daemon's response; re-answers every distinct
//       request on a fresh cache-off SynthServer at jobs 1 (the block's
//       `option jobs` line removed) and checks that too. With --hot the
//       pipeline and a SynthServer are warmed with every distinct block
//       first, SynthServer::handle itself is timed, and the first
//       kHotReplayLimit requests of the sequence are replayed.
//
// Spans are "id parent request name start_ns end_ns arg" lines; a parent of
// 0 marks a root. All times come from std::chrono::steady_clock.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/dse.h"
#include "core/perf_model.h"
#include "core/resource_model.h"
#include "core/unified.h"
#include "deploy/fleet.h"
#include "deploy/fold.h"
#include "fpga/freq_model.h"
#include "loopnest/conv_nest.h"
#include "nn/network.h"
#include "serve/deploy_protocol.h"
#include "serve/design_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/sweep_cache.h"

namespace {

using namespace sasynth;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "e2e_tool: %s\n", message.c_str());
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Splits a concatenation of protocol blocks at their `end` lines.
std::vector<std::string> read_blocks(const std::string& path) {
  std::vector<std::string> blocks;
  std::istringstream in(read_file(path));
  std::string line;
  std::string block;
  while (std::getline(in, line)) {
    block += line + "\n";
    if (line == "end") {
      blocks.push_back(block);
      block.clear();
    }
  }
  if (!block.empty()) die("unterminated block in " + path);
  return blocks;
}

std::vector<std::size_t> read_indices(const std::string& path,
                                      std::size_t bound) {
  std::vector<std::size_t> out;
  std::istringstream in(read_file(path));
  std::size_t index = 0;
  while (in >> index) {
    if (index >= bound) die("index out of range in " + path);
    out.push_back(index);
  }
  return out;
}

/// Responses file: "<index> <nbytes>\n<bytes>" records.
std::map<std::size_t, std::string> read_responses(const std::string& path) {
  std::map<std::size_t, std::string> out;
  const std::string text = read_file(path);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) die("truncated record in " + path);
    std::size_t index = 0;
    std::size_t length = 0;
    if (std::sscanf(text.substr(pos, eol - pos).c_str(), "%zu %zu", &index,
                    &length) != 2 ||
        eol + 1 + length > text.size()) {
      die("bad record in " + path);
    }
    out[index] = text.substr(eol + 1, length);
    pos = eol + 1 + length;
  }
  return out;
}

void write_response_record(std::FILE* out, std::size_t index,
                           const std::string& response) {
  std::fprintf(out, "%zu %zu\n", index, response.size());
  std::fwrite(response.data(), 1, response.size(), out);
}

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t arg = 0;
};

class SpanLog {
 public:
  std::int64_t add(std::int64_t parent, std::int64_t request, const char* name,
                   std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t arg = 0) {
    spans_.push_back(Span{static_cast<std::int64_t>(spans_.size()) + 1, parent,
                          request, name, start_ns, end_ns, arg});
    return spans_.back().id;
  }
  /// Opens a span whose end is filled in by close(); lets a parent be
  /// recorded before its children.
  std::int64_t open(std::int64_t parent, std::int64_t request,
                    const char* name) {
    return add(parent, request, name, now_ns(), 0);
  }
  void close(std::int64_t id) {
    spans_[static_cast<std::size_t>(id - 1)].end_ns = now_ns();
  }
  void write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) die("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(out, "%lld %lld %lld %s %lld %lld %lld\n",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.arg));
    }
    std::fclose(out);
  }

 private:
  std::vector<Span> spans_;
};

/// Times one call as a child span of `parent`.
template <typename F>
auto timed(SpanLog& log, std::int64_t parent, std::int64_t request,
           const char* name, F&& f) {
  const std::int64_t start = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    log.add(parent, request, name, start, now_ns());
  } else {
    auto result = f();
    log.add(parent, request, name, start, now_ns());
    return result;
  }
}

struct Flags {
  std::map<std::string, std::string> values;
  std::set<std::string> switches;

  const std::string& need(const std::string& name) const {
    auto it = values.find(name);
    if (it == values.end()) die("missing --" + name);
    return it->second;
  }
  std::int64_t need_int(const std::string& name) const {
    const std::string& text = need(name);
    char* end = nullptr;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || value < 0) {
      die("--" + name + " needs a non-negative integer");
    }
    return value;
  }
  std::string get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? std::string() : it->second;
  }
};

Flags parse_flags(int argc, char** argv, const std::set<std::string>& known,
                  const std::set<std::string>& known_switches) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) die("unexpected argument " + arg);
    const std::string name = arg.substr(2);
    if (known_switches.count(name) != 0) {
      flags.switches.insert(name);
    } else if (known.count(name) != 0) {
      if (i + 1 >= argc) die(arg + " needs a value");
      flags.values[name] = argv[++i];
    } else {
      die("unknown flag " + arg);
    }
  }
  return flags;
}

// ---------------------------------------------------------------- drive ---

struct Conn {
  int fd = -1;
  bool busy = false;
  bool dead = false;
  std::size_t index = 0;
  std::int64_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t first_byte_ns = 0;
  std::string buffer;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    die("cannot connect to 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// utime + stime of a process, in clock ticks, from /proc/<pid>/stat.
long long proc_cpu_ticks(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos) die("cannot read /proc stat");
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  long long ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stoll(field);
  }
  return ticks;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool response_complete(const std::string& buffer) {
  return buffer == "end\n" ||
         (buffer.size() >= 5 &&
          buffer.compare(buffer.size() - 5, 5, "\nend\n") == 0);
}

int run_drive(int argc, char** argv) {
  const Flags flags = parse_flags(
      argc, argv,
      {"port", "conns", "blocks", "schedule", "seconds", "min-requests", "out",
       "responses", "spans", "cpu-pid"},
      {"wrap"});
  const int port = static_cast<int>(flags.need_int("port"));
  const int conns = static_cast<int>(flags.need_int("conns"));
  const std::vector<std::string> blocks = read_blocks(flags.need("blocks"));
  const std::vector<std::size_t> schedule =
      read_indices(flags.need("schedule"), blocks.size());
  const std::int64_t budget_ns = flags.need_int("seconds") * 1000000000LL;
  const std::int64_t min_requests = flags.need_int("min-requests");
  const bool wrap = flags.switches.count("wrap") != 0;
  const std::string spans_path = flags.get("spans");
  const bool tracing = !spans_path.empty();
  const int cpu_pid = flags.get("cpu-pid").empty()
                          ? 0
                          : static_cast<int>(flags.need_int("cpu-pid"));
  constexpr std::int64_t kCpuSampleNs = 50000000;
  if (conns < 1 || schedule.empty()) die("need --conns >= 1 and a schedule");

  std::vector<Conn> pool(static_cast<std::size_t>(conns));
  for (Conn& c : pool) c.fd = connect_loopback(port);

  SpanLog spans;
  std::FILE* out = std::fopen(flags.need("out").c_str(), "w");
  std::FILE* responses = std::fopen(flags.need("responses").c_str(), "w");
  if (out == nullptr || responses == nullptr) die("cannot open outputs");

  std::map<std::size_t, std::string> first_response;
  std::int64_t next = 0;
  std::int64_t completed = 0;
  std::int64_t mismatches = 0;
  std::int64_t transport_failures = 0;
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  bool stopping = false;
  std::int64_t last_sample = 0;
  auto sample_cpu = [&](std::int64_t t) {
    std::fprintf(out, "C %lld %lld\n", static_cast<long long>(t - t0),
                 proc_cpu_ticks(cpu_pid));
    last_sample = t;
  };
  if (cpu_pid > 0) sample_cpu(t0);

  auto send_next = [&](Conn& c) {
    if (stopping) return;
    if (!wrap && next >= static_cast<std::int64_t>(schedule.size())) {
      stopping = true;
      return;
    }
    c.index = schedule[static_cast<std::size_t>(next) % schedule.size()];
    c.seq = next++;
    c.buffer.clear();
    c.first_byte_ns = 0;
    c.start_ns = now_ns();
    if (!write_all(c.fd, blocks[c.index])) {
      ++transport_failures;
      c.dead = true;
      return;
    }
    c.sent_ns = now_ns();
    c.busy = true;
  };

  for (Conn& c : pool) send_next(c);
  std::vector<pollfd> fds(pool.size());
  char chunk[65536];
  for (;;) {
    std::size_t waiting = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      fds[i].fd = pool[i].busy && !pool[i].dead ? pool[i].fd : -1;
      fds[i].events = POLLIN;
      fds[i].revents = 0;
      if (fds[i].fd >= 0) ++waiting;
    }
    if (waiting == 0) break;
    if (::poll(fds.data(), fds.size(), cpu_pid > 0 ? 10 : 1000) < 0) {
      die("poll failed");
    }
    if (cpu_pid > 0 && now_ns() - last_sample >= kCpuSampleNs) {
      sample_cpu(now_ns());
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& c = pool[i];
      const ssize_t n = ::read(c.fd, chunk, sizeof chunk);
      if (n <= 0) {
        ++transport_failures;
        c.dead = true;
        c.busy = false;
        continue;
      }
      if (c.first_byte_ns == 0) c.first_byte_ns = now_ns();
      c.buffer.append(chunk, static_cast<std::size_t>(n));
      if (!response_complete(c.buffer)) continue;
      const std::int64_t end = now_ns();
      c.busy = false;
      ++completed;
      std::fprintf(out, "R %lld %zu %zu %lld %lld\n",
                   static_cast<long long>(c.seq), c.index, i,
                   static_cast<long long>(c.start_ns - t0),
                   static_cast<long long>(end - t0));
      auto [it, fresh] = first_response.emplace(c.index, c.buffer);
      if (fresh) {
        write_response_record(responses, c.index, c.buffer);
      } else if (it->second != c.buffer) {
        ++mismatches;
      }
      if (tracing) {
        const std::int64_t root =
            spans.add(0, c.seq, "client.request", c.start_ns, end);
        spans.add(root, c.seq, "client.send", c.start_ns, c.sent_ns);
        spans.add(root, c.seq, "client.wait", c.sent_ns, c.first_byte_ns);
        spans.add(root, c.seq, "client.recv", c.first_byte_ns, end);
      }
      if (end - t0 >= budget_ns && completed >= min_requests) stopping = true;
      send_next(c);
    }
  }
  if (cpu_pid > 0) sample_cpu(now_ns());
  const std::int64_t wall = now_ns() - t0;
  const std::int64_t cpu = process_cpu_ns() - cpu0;
  for (Conn& c : pool) ::close(c.fd);
  std::fprintf(out,
               "S wall_ns=%lld client_cpu_ns=%lld completed=%lld "
               "mismatches=%lld transport_failures=%lld\n",
               static_cast<long long>(wall), static_cast<long long>(cpu),
               static_cast<long long>(completed),
               static_cast<long long>(mismatches),
               static_cast<long long>(transport_failures));
  std::fclose(out);
  std::fclose(responses);
  if (tracing) spans.write(spans_path);
  return 0;
}

// --------------------------------------------------------------- replay ---

/// handle()'s steps for one synthesis block, each call under its own span.
std::string replay_synth(const std::string& block, DesignCache& cache,
                         SweepCache& sweep, SpanLog& log, std::int64_t root,
                         std::int64_t req, std::FILE* stats) {
  const ParsedRequest parsed = timed(log, root, req, "serve.protocol.parse",
                                     [&] { return parse_request_block(block); });
  if (!parsed.ok) {
    return timed(log, root, req, "serve.protocol.format",
                 [&] { return format_error_response(parsed.error); });
  }
  ServeRequest request = parsed.request;
  request.dse.sweep_memo = &sweep;
  const LoopNest nest = timed(log, root, req, "loopnest.build_conv_nest",
                              [&] { return build_conv_nest(request.layer); });
  const std::string canonical =
      timed(log, root, req, "serve.protocol.cache_key",
            [&] { return canonical_request_text(request); });
  DesignPoint design;
  const bool hit = timed(log, root, req, "serve.design_cache.lookup",
                         [&] { return cache.lookup(canonical, nest, &design); });
  if (!hit) {
    const DesignSpaceExplorer explorer(request.device, request.dtype,
                                       request.dse);
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t start = now_ns();
    const DseResult result = explorer.explore(nest);
    const std::int64_t end = now_ns();
    const std::int64_t cpu = process_cpu_ns() - cpu0;
    log.add(root, req, "core.dse.explore", start, end);
    const DseStats& s = result.stats;
    std::fprintf(stats,
                 "X %lld %lld %lld %lld %lld %lld %lld %lld %.9f %.9f %lld "
                 "%lld\n",
                 static_cast<long long>(req),
                 static_cast<long long>(s.work_items),
                 static_cast<long long>(s.bound_seed_evaluated),
                 static_cast<long long>(s.items_pruned_bound),
                 static_cast<long long>(s.reuse_evaluated),
                 static_cast<long long>(s.reuse_subtrees_pruned),
                 static_cast<long long>(s.util_relaxations),
                 static_cast<long long>(s.soft_logic_rejected),
                 s.phase1_seconds, s.phase2_seconds,
                 static_cast<long long>(end - start),
                 static_cast<long long>(cpu));
    if (result.empty()) {
      return timed(log, root, req, "serve.protocol.format", [&] {
        return format_error_response(
            "design space exploration found no valid design for this "
            "layer/device");
      });
    }
    design = result.best()->design;
    timed(log, root, req, "serve.design_cache.insert",
          [&] { cache.insert(canonical, design); });
  }
  const std::int64_t fpga_start = now_ns();
  const ResourceUsage resources =
      model_resources(nest, design, request.device, request.dtype);
  const double realized_freq = pseudo_pnr_frequency_mhz(
      request.device, resources.report, design.signature());
  log.add(root, req, "fpga.rederive", fpga_start, now_ns());
  const auto [realized, latency_ms] =
      timed(log, root, req, "core.perf_model.estimate", [&] {
        const PerfEstimate perf = estimate_performance(
            nest, design, request.device, request.dtype, realized_freq);
        return std::make_pair(perf, layer_latency_ms(request.layer, perf));
      });
  return timed(log, root, req, "serve.protocol.format", [&] {
    return format_ok_response(design, realized, resources.report, latency_ms);
  });
}

/// handle_deploy()'s steps for one deploy block, each call under its own
/// span. `designs_out` receives the fleet that was answered.
std::string replay_deploy(const std::string& block, DesignCache& cache,
                          SpanLog& log, std::int64_t root, std::int64_t req,
                          std::vector<deploy::WorkloadEntry>* workload_out,
                          DeployRequest* request_out,
                          std::vector<DesignPoint>* designs_out) {
  const ParsedDeployRequest parsed =
      timed(log, root, req, "serve.protocol.parse",
            [&] { return parse_deploy_request_block(block); });
  if (!parsed.ok) {
    return timed(log, root, req, "serve.protocol.format",
                 [&] { return format_error_response(parsed.error); });
  }
  const DeployRequest& request = parsed.request;
  *request_out = request;
  std::vector<deploy::WorkloadEntry>& workload = *workload_out;
  const LoopNest env = timed(log, root, req, "core.unified.envelope", [&] {
    std::vector<LoopNest> all_nests;
    for (const DeployWorkloadItem& item : request.workload) {
      deploy::WorkloadEntry entry;
      parse_network_name(item.network, &entry.net);
      entry.weight = item.weight;
      for (const ConvLayerDesc& layer : entry.net.layers) {
        all_nests.push_back(build_conv_nest(layer));
      }
      workload.push_back(std::move(entry));
    }
    return unified_envelope_nest(all_nests);
  });
  const std::vector<std::string> keys =
      timed(log, root, req, "serve.protocol.cache_key", [&] {
        const std::string canonical = canonical_deploy_request_text(request);
        std::vector<std::string> out;
        for (int i = 0; i < request.fleet_size; ++i) {
          out.push_back(
              deploy_cache_entry_text(canonical, i, request.fleet_size));
        }
        return out;
      });
  std::vector<DesignPoint>& designs = *designs_out;
  const bool hit = timed(log, root, req, "serve.design_cache.lookup", [&] {
    for (const std::string& key : keys) {
      DesignPoint design;
      if (!cache.lookup(key, env, &design)) return false;
      designs.push_back(std::move(design));
    }
    return true;
  });
  if (!hit) {
    designs.clear();
    deploy::FleetOptions options;
    options.unified.dse = request.dse;
    options.num_designs = request.fleet_size;
    const deploy::FleetResult selected =
        timed(log, root, req, "deploy.select_fleet", [&] {
          return deploy::select_fleet(workload, request.device, request.dtype,
                                      options);
        });
    if (!selected.valid) {
      return timed(log, root, req, "serve.protocol.format",
                   [&] { return format_error_response(selected.error); });
    }
    designs = selected.designs;
    if (static_cast<int>(designs.size()) == request.fleet_size) {
      timed(log, root, req, "serve.design_cache.insert", [&] {
        for (std::size_t i = 0; i < designs.size(); ++i) {
          cache.insert(keys[i], designs[i]);
        }
      });
    }
  }
  const deploy::FleetResult evaluated =
      timed(log, root, req, "deploy.evaluate_fleet", [&] {
        return deploy::evaluate_fleet(workload, designs, request.device,
                                      request.dtype);
      });
  return timed(log, root, req, "serve.protocol.format", [&] {
    return evaluated.valid ? format_deploy_ok_response(evaluated)
                           : format_error_response(evaluated.error);
  });
}

/// Stage probes for one deploy request, outside the per-request span: the
/// unified selector on the merged workload (the search select_fleet runs
/// first), and plan_fold of every workload layer onto each answered design.
void probe_deploy(const std::vector<deploy::WorkloadEntry>& workload,
                  const DeployRequest& request,
                  const std::vector<DesignPoint>& designs, SpanLog& log,
                  std::int64_t req) {
  Network merged;
  merged.name = "mix";
  for (const deploy::WorkloadEntry& w : workload) {
    merged.layers.insert(merged.layers.end(), w.net.layers.begin(),
                         w.net.layers.end());
  }
  UnifiedOptions options;
  options.dse = request.dse;
  const std::int64_t start = now_ns();
  const UnifiedDesign unified =
      select_unified_design(merged, request.device, request.dtype, options);
  log.add(0, req, "core.unified.select", start, now_ns(), unified.valid);

  std::vector<DesignPoint> probes = designs;
  if (unified.valid) probes.push_back(unified.design);
  for (const DesignPoint& design : probes) {
    for (const ConvLayerDesc& layer : merged.layers) {
      const LoopNest nest = build_conv_nest(layer);
      const std::int64_t fold_start = now_ns();
      const deploy::FoldPlan plan = deploy::plan_fold(nest, design);
      log.add(0, req, "deploy.plan_fold", fold_start, now_ns(),
              plan.feasible ? 1 : 0);
    }
  }
}

bool is_deploy_block(const std::string& block) {
  return block.rfind(std::string(kDeployRequestMagic) + "\n", 0) == 0;
}

// Requests a --hot replay covers; at ~20 us each, 50k samples pin every
// microsecond-scale percentile.
constexpr std::size_t kHotReplayLimit = 50000;

// The block without its `option jobs N` line, so the request runs at the
// protocol's default of one DSE thread. jobs is execution policy, not part
// of the canonical request, so the answer must not change.
std::string without_jobs_option(const std::string& block) {
  std::string out;
  std::size_t pos = 0;
  while (pos < block.size()) {
    std::size_t eol = block.find('\n', pos);
    eol = eol == std::string::npos ? block.size() : eol + 1;
    if (block.compare(pos, 12, "option jobs ") != 0) {
      out.append(block, pos, eol - pos);
    }
    pos = eol;
  }
  return out;
}

int run_replay(int argc, char** argv) {
  const Flags flags = parse_flags(
      argc, argv,
      {"blocks", "sequence", "responses", "cache-dir", "spans", "stats"},
      {"hot"});
  const std::vector<std::string> blocks = read_blocks(flags.need("blocks"));
  std::vector<std::size_t> sequence =
      read_indices(flags.need("sequence"), blocks.size());
  const std::map<std::size_t, std::string> daemon =
      read_responses(flags.need("responses"));
  const std::string cache_dir = flags.need("cache-dir");
  const bool hot = flags.switches.count("hot") != 0;
  if (hot && sequence.size() > kHotReplayLimit) {
    sequence.resize(kHotReplayLimit);
  }
  std::vector<std::size_t> distinct;
  {
    std::set<std::size_t> seen;
    for (std::size_t index : sequence) {
      if (seen.insert(index).second) distinct.push_back(index);
    }
  }
  for (std::size_t index : distinct) {
    if (daemon.count(index) == 0) die("no daemon response for a replayed block");
  }

  std::FILE* stats = std::fopen(flags.need("stats").c_str(), "w");
  if (stats == nullptr) die("cannot write stats");
  SpanLog log;
  std::int64_t pipeline_mismatches = 0;
  std::int64_t server_mismatches = 0;

  // The pipeline's caches mirror the daemon's defaults (serve/server.h).
  DesignCache cache(cache_dir + "/pipeline", ServeOptions{}.cache_capacity);
  SweepCache sweep(ServeOptions{}.sweep_cache_capacity);
  SpanLog warm_log;
  std::FILE* null_stats = std::fopen("/dev/null", "w");
  if (hot) {
    for (std::size_t index : distinct) {
      const std::string& block = blocks[index];
      if (is_deploy_block(block)) die("--hot replays synthesis blocks only");
      replay_synth(block, cache, sweep, warm_log, 0, 0, null_stats);
    }
  }
  for (std::size_t pos = 0; pos < sequence.size(); ++pos) {
    const std::string& block = blocks[sequence[pos]];
    const auto req = static_cast<std::int64_t>(pos);
    const std::int64_t root = log.open(0, req, "replay.request");
    std::string response;
    std::vector<deploy::WorkloadEntry> workload;
    DeployRequest request;
    std::vector<DesignPoint> designs;
    if (is_deploy_block(block)) {
      response = replay_deploy(block, cache, log, root, req, &workload,
                               &request, &designs);
    } else {
      response = replay_synth(block, cache, sweep, log, root, req, stats);
    }
    log.close(root);
    if (response != daemon.at(sequence[pos])) ++pipeline_mismatches;
    if (!workload.empty()) probe_deploy(workload, request, designs, log, req);
  }

  {
    ServeOptions options;
    options.jobs = 1;
    options.cache_enabled = false;
    options.sweep_cache_capacity = 0;
    SynthServer fresh(options);
    for (std::size_t index : distinct) {
      const std::string block = without_jobs_option(blocks[index]);
      const std::string response = is_deploy_block(block)
                                       ? fresh.handle_deploy(block)
                                       : fresh.handle(block);
      if (response != daemon.at(index)) ++server_mismatches;
    }
  }

  if (hot) {
    ServeOptions options;
    options.cache_dir = cache_dir + "/server";
    SynthServer warmed(options);
    for (std::size_t index : distinct) (void)warmed.handle(blocks[index]);
    for (std::size_t pos = 0; pos < sequence.size(); ++pos) {
      const std::int64_t start = now_ns();
      const std::string response = warmed.handle(blocks[sequence[pos]]);
      log.add(0, static_cast<std::int64_t>(pos), "serve.handle", start,
              now_ns());
      if (response != daemon.at(sequence[pos])) ++server_mismatches;
    }
  }

  std::fclose(null_stats);
  std::fclose(stats);
  log.write(flags.need("spans"));
  std::printf("replayed=%zu distinct=%zu pipeline_mismatches=%lld "
              "server_mismatches=%lld\n",
              sequence.size(), distinct.size(),
              static_cast<long long>(pipeline_mismatches),
              static_cast<long long>(server_mismatches));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon that dies mid-run must surface as a failed write, not kill the
  // generator before it reports.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "drive") return run_drive(argc, argv);
  if (mode == "replay") return run_replay(argc, argv);
  std::fprintf(stderr, "usage: e2e_tool drive|replay [flags]\n");
  return 2;
}
