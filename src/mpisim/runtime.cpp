#include "mpisim/runtime.h"

#include <algorithm>
#include <exception>
#include <thread>

namespace tgi::mpisim {

namespace detail {

void Mailbox::push(Message msg) {
  {
    std::scoped_lock lock(mu_);
    queue_.push_back(std::move(msg));
  }
  cv_.notify_all();
}

Message Mailbox::pop(int source, int tag,
                     const std::function<bool()>& aborted) {
  std::unique_lock lock(mu_);
  for (;;) {
    const auto it = std::find_if(
        queue_.begin(), queue_.end(), [&](const Message& m) {
          return (source == kAnySource || m.source == source) &&
                 (tag == kAnyTag || m.tag == tag);
        });
    if (it != queue_.end()) {
      Message msg = std::move(*it);
      queue_.erase(it);
      return msg;
    }
    if (aborted()) throw WorldAborted("peer rank failed during recv");
    cv_.wait(lock);
  }
}

void Mailbox::notify_abort() {
  // pop() checks for an abort under mu_ and then waits: locking mu_ here
  // means a receiver that saw no abort is already waiting when this
  // notify runs, so the wake-up cannot fall between its check and wait.
  { std::scoped_lock lock(mu_); }
  cv_.notify_all();
}

World::World(int size) : size_(size) {
  TGI_REQUIRE(size_ >= 1, "world size must be >= 1");
  mailboxes_.reserve(static_cast<std::size_t>(size_));
  for (int i = 0; i < size_; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& World::mailbox(int rank) {
  TGI_REQUIRE(rank >= 0 && rank < size_, "bad rank " << rank);
  return *mailboxes_[static_cast<std::size_t>(rank)];
}

void World::barrier() {
  std::unique_lock lock(barrier_mu_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_waiting_ == size_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
    return;
  }
  barrier_cv_.wait(lock, [&] {
    return barrier_generation_ != my_generation || aborted();
  });
  if (barrier_generation_ == my_generation && aborted()) {
    throw WorldAborted("peer rank failed during barrier");
  }
}

void World::abort(const std::string& why) {
  {
    std::scoped_lock lock(abort_mu_);
    if (aborted_) return;
    aborted_ = true;
    abort_reason_ = why;
  }
  for (auto& mb : mailboxes_) mb->notify_abort();
  { std::scoped_lock lock(barrier_mu_); }  // as in Mailbox::notify_abort
  barrier_cv_.notify_all();
}

bool World::aborted() const {
  std::scoped_lock lock(abort_mu_);
  return aborted_;
}

void World::check_abort() const {
  std::scoped_lock lock(abort_mu_);
  if (aborted_) throw WorldAborted(abort_reason_);
}

}  // namespace detail

void Rank::send_bytes(int dest, int tag,
                      std::span<const std::uint8_t> data) {
  TGI_REQUIRE(dest >= 0 && dest < size(), "bad destination rank " << dest);
  TGI_REQUIRE(tag >= 0, "tags must be non-negative");
  world_->check_abort();
  detail::Message msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  world_->mailbox(dest).push(std::move(msg));
}

std::vector<std::uint8_t> Rank::recv_bytes(int source, int tag) {
  TGI_REQUIRE(source == kAnySource || (source >= 0 && source < size()),
              "bad source rank " << source);
  detail::Message msg = world_->mailbox(rank_).pop(
      source, tag, [w = world_] { return w->aborted(); });
  return std::move(msg.payload);
}

void Rank::barrier() { world_->barrier(); }

void run(int nprocs, const std::function<void(Rank&)>& fn) {
  TGI_REQUIRE(nprocs >= 1, "need at least one rank");
  detail::World world(nprocs);

  std::exception_ptr first_error;
  std::mutex error_mu;

  {
    // CP.23/CP.25: joining threads as a scoped container. Ranks ARE
    // threads in this runtime — each needs its own stack for the whole
    // program, which a task pool cannot provide.
    std::vector<std::jthread> threads;  // tgi-lint: allow(raw-thread)
    threads.reserve(static_cast<std::size_t>(nprocs));
    for (int r = 0; r < nprocs; ++r) {
      threads.emplace_back([&, r] {
        Rank rank(&world, r);
        try {
          fn(rank);
        } catch (const WorldAborted&) {
          // Secondary wake-up after some other rank failed; the root cause
          // was already recorded by that rank.
        } catch (...) {
          {
            std::scoped_lock lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
          world.abort("rank " + std::to_string(r) + " threw");
        }
      });
    }
  }  // join all

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace tgi::mpisim
