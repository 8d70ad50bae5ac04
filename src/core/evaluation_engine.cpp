#include "core/evaluation_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mapcq::core {

namespace {

// How long the thread waiting for a batch polls its countdown, yielding,
// before it blocks on the batch's future. Longer than a GA generation's
// batch, so a search's coordinator stays running while its batch is
// evaluated: a blocked waiter must be woken by the last worker, and on a
// virtual machine whose idle vCPUs halt that wake-up waits for the host
// to run the vCPU again (see util::thread_pool::poll_window).
constexpr std::chrono::milliseconds kBatchPoll{10};

void poll_until_done(const std::atomic<std::size_t>& remaining) {
  const auto until = std::chrono::steady_clock::now() + kBatchPoll;
  while (remaining.load(std::memory_order_acquire) != 0 && std::chrono::steady_clock::now() < until)
    std::this_thread::yield();
}

std::shared_ptr<const evaluator> require(std::shared_ptr<const evaluator> eval) {
  if (!eval) throw std::invalid_argument("evaluation_engine: null evaluator");
  return eval;
}

// A capacity bound is a maximum: never spread it over more shards than
// entries, or the per-shard floor of 1 would let the table exceed it.
std::size_t shard_count(const engine_options& opt) {
  std::size_t n = std::max<std::size_t>(1, opt.shards);
  if (opt.capacity > 0) n = std::min(n, opt.capacity);
  return n;
}

}  // namespace

std::size_t approx_evaluation_bytes(const evaluation& e) noexcept {
  std::size_t n = sizeof(evaluation);
  for (const auto& row : e.config.partition) n += sizeof(row) + row.capacity() * sizeof(double);
  for (const auto& row : e.config.forward) n += sizeof(row) + row.capacity() / 8;
  n += e.config.mapping.capacity() * sizeof(std::size_t);
  n += e.config.dvfs.capacity() * sizeof(std::size_t);
  n += e.reject_reason.capacity();
  n += e.stage_latency_ms.capacity() * sizeof(double);
  n += e.stage_energy_mj.capacity() * sizeof(double);
  n += e.stage_accuracy_pct.capacity() * sizeof(double);
  n += e.exit_fractions.capacity() * sizeof(double);
  return n;
}

evaluation_engine::evaluation_engine(const evaluator& eval, engine_options opt)
    : evaluation_engine(std::shared_ptr<const evaluator>(std::shared_ptr<void>{}, &eval), opt) {}

evaluation_engine::evaluation_engine(std::shared_ptr<const evaluator> eval, engine_options opt)
    : opt_(opt),
      shard_capacity_(0),
      shards_(shard_count(opt)),
      state_(std::make_shared<const epoch_state>(epoch_state{require(std::move(eval)), 0})) {
  if (opt_.capacity > 0) shard_capacity_ = opt_.capacity / shards_.size();
  if (opt_.threads > 1) pool_ = std::make_unique<util::thread_pool>(opt_.threads);
}

std::shared_ptr<const evaluation_engine::epoch_state> evaluation_engine::current() const {
  const std::lock_guard<std::mutex> lock{state_mu_};
  return state_;
}

std::uint64_t evaluation_engine::epoch() const { return current()->epoch; }

void evaluation_engine::set_ground_truth_tap(ground_truth_tap tap) {
  // Unique access excludes every in-flight fire_tap: when this returns, no
  // thread is inside the previous tap and none can observe it again.
  const std::unique_lock<std::shared_mutex> lock{tap_mu_};
  tap_ = std::move(tap);
}

void evaluation_engine::fire_tap(const configuration& config,
                                 const evaluation& result) noexcept {
  const std::shared_lock<std::shared_mutex> lock{tap_mu_};
  if (!tap_) return;
  try {
    tap_(config, result);
  } catch (...) {
    // An observer must never fail a successful evaluation; drop it.
  }
}

void evaluation_engine::advance_epoch(std::shared_ptr<const evaluator> next) {
  std::uint64_t fresh = 0;
  {
    const std::lock_guard<std::mutex> lock{state_mu_};
    fresh = state_->epoch + 1;
    state_ = std::make_shared<const epoch_state>(epoch_state{require(std::move(next)), fresh});
  }
  // Purge everything the new epoch can never serve. Old-epoch batches still
  // in flight may re-insert afterwards; their entries stay tagged stale,
  // are skipped by every lookup, and fall out on the next advance (or under
  // capacity eviction). Old in-flight slots are left for their owners to
  // retire — claim matching is epoch-exact, so nobody new can join them.
  std::size_t purged = 0;
  for (shard& s : shards_) {
    const std::lock_guard<std::mutex> lock{s.mu};
    for (auto it = s.order.begin(); it != s.order.end();) {
      if (it->epoch == fresh) {
        ++it;
      } else {
        it = unlink(s, it);
        ++purged;
      }
    }
  }
  invalidated_.fetch_add(purged, std::memory_order_relaxed);
}

evaluation_engine::entry_list::iterator evaluation_engine::unlink(shard& s,
                                                                  entry_list::iterator entry) {
  const auto bucket = s.map.find(entry->key);
  std::erase(bucket->second, entry);
  if (bucket->second.empty()) s.map.erase(bucket);
  bytes_.fetch_sub(entry->bytes, std::memory_order_relaxed);
  return s.order.erase(entry);
}

void evaluation_engine::insert(std::size_t key, const evaluation& result,
                               std::uint64_t epoch) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock{s.mu};
  auto& bucket = s.map[key];
  // A concurrent batch may have raced us to the same configuration; keep
  // the first copy so the bucket stays in step with the eviction list.
  for (const entry_list::iterator entry : bucket)
    if (entry->epoch == epoch && entry->value.config == result.config) return;
  const std::size_t entry_bytes = approx_evaluation_bytes(result);
  s.order.push_back(cache_entry{key, epoch, entry_bytes, result});
  bucket.push_back(std::prev(s.order.end()));
  bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);

  while (shard_capacity_ > 0 && s.order.size() > shard_capacity_) {
    unlink(s, s.order.begin());
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

evaluation_engine::claim evaluation_engine::claim_slot(std::size_t key,
                                                       const configuration& config,
                                                       std::uint64_t epoch) {
  shard& s = shard_for(key);
  claim c;
  const std::lock_guard<std::mutex> lock{s.mu};
  // 1. Memo table. Holding the shard lock for the whole claim closes the
  // classic stampede window: an owner publishes its result and retires its
  // in-flight slot under this same lock, so "in neither table" can only
  // mean "never started". Entries of other epochs are invisible: a
  // promotion must never serve predictions from a retired model.
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    for (const entry_list::iterator entry : it->second) {
      if (entry->epoch == epoch && entry->value.config == config) {
        s.order.splice(s.order.end(), s.order, entry);
        c.outcome = claim::kind::hit;
        c.value = entry->value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return c;
      }
    }
  }
  // 2. In-flight table: somebody else is evaluating this exact candidate on
  // this exact model; join their run instead of starting a second one.
  const auto fit = s.inflight.find(key);
  if (fit != s.inflight.end()) {
    for (const inflight_slot& slot : fit->second) {
      if (slot.epoch == epoch && slot.config == config) {
        c.outcome = claim::kind::join;
        c.pending = slot.result;
        inflight_.fetch_add(1, std::memory_order_relaxed);
        return c;
      }
    }
  }
  // 3. Nobody has it: claim ownership and advertise the pending run.
  c.outcome = claim::kind::owner;
  c.pending = c.promise.get_future().share();
  s.inflight[key].push_back({config, epoch, c.pending});
  misses_.fetch_add(1, std::memory_order_relaxed);
  return c;
}

void evaluation_engine::retire_slot(std::size_t key, const configuration& config,
                                    std::uint64_t epoch) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock{s.mu};
  const auto fit = s.inflight.find(key);
  if (fit == s.inflight.end()) return;
  auto& slots = fit->second;
  for (auto slot = slots.begin(); slot != slots.end(); ++slot) {
    if (slot->epoch == epoch && slot->config == config) {
      slots.erase(slot);
      break;
    }
  }
  if (slots.empty()) s.inflight.erase(fit);
}

evaluation evaluation_engine::evaluate(const configuration& config) {
  return std::move(evaluate_batch({&config, 1}).front());
}

void evaluation_engine::plan_batch(batch_plan& plan) {
  plan.state = current();
  const std::size_t n = plan.configs.size();
  plan.out.resize(n);

  // Classify every element: earlier in-batch groups first (so a duplicate
  // of our own pending representative counts as `dedup`, exactly as the
  // synchronous batch always has), then the shared cache / in-flight state.
  std::size_t dups = 0;
  std::unordered_map<std::size_t, std::vector<std::size_t>> local;  // key -> group indices
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t key = plan.configs[i].hash();
    bool merged = false;
    if (const auto lit = local.find(key); lit != local.end()) {
      for (const std::size_t gi : lit->second) {
        if (plan.configs[plan.groups[gi].rep] == plan.configs[i]) {
          plan.groups[gi].dups.push_back(i);
          ++dups;
          merged = true;
          break;
        }
      }
    }
    if (merged) continue;

    claim c = claim_slot(key, plan.configs[i], plan.state->epoch);
    if (c.outcome == claim::kind::hit) {
      plan.out[i] = std::move(c.value);
      continue;
    }
    batch_plan::group g;
    g.rep = i;
    g.key = key;
    g.pending = std::move(c.pending);
    if (c.outcome == claim::kind::owner) {
      g.promise = std::move(c.promise);
      plan.owners.push_back(plan.groups.size());
    }
    local[key].push_back(plan.groups.size());
    plan.groups.push_back(std::move(g));
  }
  // `claim_slot` already counted hits/misses/inflight per element; only the
  // in-batch dedups are counted here.
  dedup_.fetch_add(dups, std::memory_order_relaxed);
}

void evaluation_engine::launch(const std::shared_ptr<batch_plan>& plan) {
  // A batch of hits and joins owns no task, so it is launched complete.
  plan->remaining.store(plan->owners.size(), std::memory_order_relaxed);
  if (plan->owners.empty()) plan->returned.set_value();
  for (const std::size_t gi : plan->owners) {
    if (pool_)
      pool_->submit([this, plan, gi] { run_owner(*plan, gi); });
    else
      run_owner(*plan, gi);
  }
}

void evaluation_engine::run_owner(batch_plan& plan, std::size_t group_index) {
  batch_plan::group& g = plan.groups[group_index];
  const configuration& config = plan.configs[g.rep];
  // The batch's captured evaluator, not the live one: a concurrent
  // advance_epoch must not switch models under a half-evaluated batch.
  const epoch_state& st = *plan.state;
  try {
    const evaluation fresh = st.eval->evaluate(config);
    // Publish before retiring the slot (see claim_slot's invariant: a
    // prober that sees neither table entry knows the run never started).
    insert(g.key, fresh, st.epoch);
    retire_slot(g.key, config, st.epoch);
    g.promise.set_value(fresh);
    // The tap fires after publication, outside every shard lock: joiners
    // are already unblocked and the observer can take its own locks freely.
    fire_tap(config, fresh);
  } catch (...) {
    // Park the exception in the promise: collect rethrows it on the
    // consuming thread. Unwinding here would escape into a pool worker and
    // std::terminate (thread_pool runs tasks bare), and would leave the
    // remaining owned slots of an inline batch claimed forever.
    retire_slot(g.key, config, st.epoch);
    g.promise.set_exception(std::current_exception());
  }
  // The task's last touch of the batch's configurations and evaluator.
  if (plan.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) plan.returned.set_value();
}

std::vector<evaluation> evaluation_engine::collect(batch_plan& plan) {
  // Wait until every owned task has returned, not only until its result is
  // set: until then a task may still read the configurations (a
  // synchronous batch views the caller's span) and fire the tap.
  poll_until_done(plan.remaining);
  plan.returned.get_future().wait();
  // No task uses the evaluator any more: let a replaced one go now.
  plan.state.reset();
  for (batch_plan::group& g : plan.groups) {
    plan.out[g.rep] = g.pending.get();  // own run or foreign join; may rethrow
    for (const std::size_t d : g.dups) plan.out[d] = plan.out[g.rep];
  }
  return std::move(plan.out);
}

std::vector<evaluation> evaluation_engine::evaluate_batch(
    std::span<const configuration> configs) {
  const auto plan = std::make_shared<batch_plan>();
  plan->configs = configs;  // view of the caller's span: collected before we return
  plan_batch(*plan);
  launch(plan);
  return collect(*plan);
}

std::future<std::vector<evaluation>> evaluation_engine::evaluate_batch_async(
    std::vector<configuration> configs) {
  // The plan (probe + dedup + in-flight registration + all counter bumps)
  // runs synchronously here. The batch owns its configurations: the span
  // views the plan's own vector, which lives as long as the plan.
  auto plan = std::make_shared<batch_plan>();
  plan->storage = std::move(configs);
  plan->configs = plan->storage;
  plan_batch(*plan);
  launch(plan);
  // Deferred: collection runs on the thread that calls get()/wait(), never
  // on a pool worker, so overlapping batches cannot deadlock the pool.
  return std::async(std::launch::deferred, [plan] { return collect(*plan); });
}

engine_stats evaluation_engine::stats() const noexcept {
  engine_stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.dedup = dedup_.load(std::memory_order_relaxed);
  s.inflight = inflight_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.cache_bytes = bytes_.load(std::memory_order_relaxed);
  return s;
}

std::size_t evaluation_engine::size() const {
  std::size_t total = 0;
  for (const shard& s : shards_) {
    const std::lock_guard<std::mutex> lock{s.mu};
    total += s.order.size();
  }
  return total;
}

std::vector<evaluation> evaluation_engine::export_cache() const {
  const std::uint64_t epoch = current()->epoch;
  std::vector<evaluation> out;
  for (const shard& s : shards_) {
    const std::lock_guard<std::mutex> lock{s.mu};
    for (const cache_entry& entry : s.order)
      if (entry.epoch == epoch) out.push_back(entry.value);
  }
  return out;
}

void evaluation_engine::import_cache(std::span<const evaluation> entries) {
  const std::uint64_t epoch = current()->epoch;
  for (const evaluation& e : entries) insert(e.config.hash(), e, epoch);
}

}  // namespace mapcq::core
