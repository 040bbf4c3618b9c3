#include "runtime/comm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace hia {

namespace {
// Records each collective's wall latency into one shared distribution —
// the p99 here is the "sim ranks stall on in-situ exchange" headline.
struct CollectiveTimer {
  ~CollectiveTimer() {
    static obs::Histogram& h = obs::histogram("comm_collective_s");
    h.record(watch.seconds());
  }
  Stopwatch watch;
};
}  // namespace

// ---------------------------------------------------------------- World ----

World::World(int num_ranks) : num_ranks_(num_ranks) {
  HIA_REQUIRE(num_ranks > 0, "world needs at least one rank");
  mailboxes_.reserve(static_cast<size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

World::~World() = default;

void World::deliver(int dest, Message msg) {
  HIA_ASSERT(dest >= 0 && dest < num_ranks_);
  Mailbox& box = *mailboxes_[static_cast<size_t>(dest)];
  {
    std::lock_guard lock(box.mutex);
    box.messages.push_back(std::move(msg));
  }
  box.cv.notify_all();
}

void World::run(const std::function<void(Comm&)>& rank_main) {
  std::vector<Comm> comms;
  comms.reserve(static_cast<size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) comms.push_back(Comm(this, r));

  std::vector<std::exception_ptr> errors(static_cast<size_t>(num_ranks_));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        rank_main(comms[static_cast<size_t>(r)]);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  total_bytes_ = 0;
  for (const auto& c : comms) total_bytes_ += c.bytes_sent();

  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// ----------------------------------------------------------------- Comm ----

int Comm::size() const { return world_->size(); }

void Comm::send(int dest, int tag, std::span<const std::byte> data) {
  HIA_REQUIRE(dest >= 0 && dest < size(), "send: destination out of range");
  bytes_sent_ += data.size();
  World::Message msg{rank_, tag,
                     std::vector<std::byte>(data.begin(), data.end())};
  world_->deliver(dest, std::move(msg));
}

std::vector<std::byte> Comm::recv(int src, int tag, int* out_src) {
  World::Mailbox& box = *world_->mailboxes_[static_cast<size_t>(rank_)];
  std::unique_lock lock(box.mutex);
  for (;;) {
    auto it = std::find_if(
        box.messages.begin(), box.messages.end(), [&](const auto& m) {
          return m.tag == tag && (src == kAnySource || m.src == src);
        });
    if (it != box.messages.end()) {
      if (out_src != nullptr) *out_src = it->src;
      std::vector<std::byte> payload = std::move(it->payload);
      box.messages.erase(it);
      return payload;
    }
    box.cv.wait(lock);
  }
}

namespace {
// Collectives tag scheme: base + epoch slice + round. Epochs advance per
// collective call on every rank, so tags never collide between overlapping
// trees of successive collectives.
int collective_tag(int epoch, int round) {
  return kCollectiveTagBase + (epoch % 4096) * 64 + round;
}
}  // namespace

void Comm::barrier() {
  HIA_TRACE_SPAN_ARGS("comm", "barrier", {.rank = rank_});
  CollectiveTimer timer;
  const int epoch = collective_epoch_++;
  const int n = size();
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    const int to = (rank_ + dist) % n;
    const int from = (rank_ - dist % n + n) % n;
    send_value(to, collective_tag(epoch, round), char{0});
    (void)recv_value<char>(from, collective_tag(epoch, round));
  }
}

std::vector<double> Comm::reduce(
    std::span<const double> local, int root,
    const std::function<void(std::span<double>, std::span<const double>)>&
        combine) {
  HIA_TRACE_SPAN_ARGS("comm", "reduce",
                      {.rank = rank_,
                       .bytes = static_cast<long long>(local.size() *
                                                       sizeof(double))});
  CollectiveTimer timer;
  const int epoch = collective_epoch_++;
  const int n = size();
  const int vrank = (rank_ - root + n) % n;  // virtual rank, root -> 0

  std::vector<double> acc(local.begin(), local.end());

  // Binomial tree: at round k, virtual ranks with bit k set send to
  // (vrank - 2^k); others receive from (vrank + 2^k) when it exists.
  for (int k = 0, dist = 1; dist < n; ++k, dist <<= 1) {
    if ((vrank & dist) != 0) {
      const int parent = ((vrank - dist) + root) % n;
      send_vector(parent, collective_tag(epoch, k), acc);
      break;  // contributed; done with reduction
    }
    const int vchild = vrank + dist;
    if (vchild < n) {
      const int child = (vchild + root) % n;
      auto incoming = recv_vector<double>(child, collective_tag(epoch, k));
      HIA_REQUIRE(incoming.size() == acc.size(),
                  "reduce: mismatched contribution sizes");
      combine(std::span(acc), std::span<const double>(incoming));
    }
  }
  return acc;
}

std::vector<std::byte> Comm::broadcast(int root,
                                       std::span<const std::byte> data) {
  HIA_TRACE_SPAN_ARGS("comm", "broadcast",
                      {.rank = rank_,
                       .bytes = static_cast<long long>(data.size())});
  CollectiveTimer timer;
  const int epoch = collective_epoch_++;
  const int n = size();
  const int vrank = (rank_ - root + n) % n;

  std::vector<std::byte> buf;
  if (vrank == 0) {
    buf.assign(data.begin(), data.end());
  } else {
    // Receive from parent: parent is vrank with its lowest set bit cleared.
    const int lowbit = vrank & (-vrank);
    const int parent = ((vrank - lowbit) + root) % n;
    // Round index = log2(lowbit), matches the sender's round.
    int round = 0;
    for (int b = lowbit; b > 1; b >>= 1) ++round;
    buf = recv(parent, collective_tag(epoch, round));
  }

  // Forward to children: child vranks are vrank + 2^k for 2^k > lowbit(vrank)
  // (or any 2^k for the root) while in range.
  const int lowbit = vrank == 0 ? n : (vrank & (-vrank));
  for (int k = 0, dist = 1; dist < lowbit && vrank + dist < n;
       ++k, dist <<= 1) {
    const int child = ((vrank + dist) + root) % n;
    send(child, collective_tag(epoch, k), buf);
  }
  return buf;
}

std::vector<double> Comm::allreduce(
    std::span<const double> local,
    const std::function<void(std::span<double>, std::span<const double>)>&
        combine) {
  auto reduced = reduce(local, 0, combine);
  std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(reduced.data()),
      reduced.size() * sizeof(double));
  auto bcast = broadcast(0, rank_ == 0 ? bytes : std::span<const std::byte>{});
  std::vector<double> out(bcast.size() / sizeof(double));
  std::memcpy(out.data(), bcast.data(), bcast.size());
  return out;
}

std::vector<double> Comm::allreduce_sum(std::span<const double> local) {
  return allreduce(local, [](std::span<double> acc,
                             std::span<const double> in) {
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += in[i];
  });
}

double Comm::allreduce_sum(double v) {
  return allreduce_sum(std::span<const double>(&v, 1))[0];
}

double Comm::allreduce_max(double v) {
  return allreduce(std::span<const double>(&v, 1),
                   [](std::span<double> acc, std::span<const double> in) {
                     acc[0] = std::max(acc[0], in[0]);
                   })[0];
}

double Comm::allreduce_min(double v) {
  return allreduce(std::span<const double>(&v, 1),
                   [](std::span<double> acc, std::span<const double> in) {
                     acc[0] = std::min(acc[0], in[0]);
                   })[0];
}

std::vector<std::vector<std::byte>> Comm::gather(
    int root, std::span<const std::byte> data) {
  HIA_TRACE_SPAN_ARGS("comm", "gather",
                      {.rank = rank_,
                       .bytes = static_cast<long long>(data.size())});
  CollectiveTimer timer;
  const int epoch = collective_epoch_++;
  const int tag = collective_tag(epoch, 0);
  if (rank_ != root) {
    send(root, tag, data);
    return {};
  }
  std::vector<std::vector<std::byte>> out(static_cast<size_t>(size()));
  out[static_cast<size_t>(rank_)].assign(data.begin(), data.end());
  for (int i = 0; i < size() - 1; ++i) {
    int src = 0;
    auto payload = recv(kAnySource, tag, &src);
    out[static_cast<size_t>(src)] = std::move(payload);
  }
  return out;
}

}  // namespace hia
