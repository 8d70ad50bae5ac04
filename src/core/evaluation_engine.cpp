#include "core/evaluation_engine.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace mapcq::core {

namespace {

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
    : opt_(opt), shard_capacity_(0), shards_(shard_count(opt)) {
  state_ = std::make_shared<const epoch_state>(epoch_state{&eval, 0});
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

void evaluation_engine::advance_epoch(const evaluator& next) {
  std::uint64_t fresh = 0;
  {
    const std::lock_guard<std::mutex> lock{state_mu_};
    fresh = state_->epoch + 1;
    state_ = std::make_shared<const epoch_state>(epoch_state{&next, fresh});
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
        continue;
      }
      auto& bucket = s.map.at(it->key);
      for (auto e = bucket.begin(); e != bucket.end(); ++e) {
        if (*e == it) {
          bucket.erase(e);
          break;
        }
      }
      if (bucket.empty()) s.map.erase(it->key);
      bytes_.fetch_sub(it->bytes, std::memory_order_relaxed);
      it = s.order.erase(it);
      ++purged;
    }
  }
  invalidated_.fetch_add(purged, std::memory_order_relaxed);
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
    const entry_list::iterator victim = s.order.begin();
    const auto vit = s.map.find(victim->key);
    auto& ventries = vit->second;
    for (auto e = ventries.begin(); e != ventries.end(); ++e) {
      if (*e == victim) {
        ventries.erase(e);
        break;
      }
    }
    if (ventries.empty()) s.map.erase(vit);
    bytes_.fetch_sub(victim->bytes, std::memory_order_relaxed);
    s.order.erase(victim);
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

void evaluation_engine::complete_owner(std::size_t key, const configuration& config,
                                       std::uint64_t epoch, std::promise<evaluation>& promise,
                                       const evaluation& result) {
  // Publish before retiring the slot (see claim_slot's invariant: a prober
  // that sees neither table entry knows the run never started).
  insert(key, result, epoch);
  retire_slot(key, config, epoch);
  promise.set_value(result);
  // The tap fires after publication, outside every shard lock: joiners are
  // already unblocked and the observer can take its own locks freely.
  fire_tap(config, result);
}

void evaluation_engine::abandon_owner(std::size_t key, const configuration& config,
                                      std::uint64_t epoch, std::promise<evaluation>& promise) {
  retire_slot(key, config, epoch);
  promise.set_exception(std::current_exception());
}

evaluation evaluation_engine::evaluate(const configuration& config) {
  const std::shared_ptr<const epoch_state> st = current();
  if (!opt_.memoize) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    const evaluation fresh = st->eval->evaluate(config);
    fire_tap(config, fresh);
    return fresh;
  }
  const std::size_t key = config.hash();
  claim c = claim_slot(key, config, st->epoch);
  switch (c.outcome) {
    case claim::kind::hit:
      return c.value;
    case claim::kind::join:
      return c.pending.get();  // blocks until the owning thread finishes
    case claim::kind::owner:
      break;
  }
  try {
    const evaluation fresh = st->eval->evaluate(config);
    complete_owner(key, config, st->epoch, c.promise, fresh);
    return fresh;
  } catch (...) {
    abandon_owner(key, config, st->epoch, c.promise);
    throw;
  }
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
      g.owner = true;
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

void evaluation_engine::run_owner(batch_plan& plan, std::size_t group_index) {
  batch_plan::group& g = plan.groups[group_index];
  try {
    // The batch's captured evaluator, not the live one: a concurrent
    // advance_epoch must not switch models under a half-evaluated batch.
    const evaluation fresh = plan.state->eval->evaluate(plan.configs[g.rep]);
    complete_owner(g.key, plan.configs[g.rep], plan.state->epoch, g.promise, fresh);
  } catch (...) {
    // Park the exception in the promise: finish_plan rethrows it on the
    // consuming thread. Unwinding here would escape into a pool worker and
    // std::terminate (thread_pool runs tasks bare), and would leave the
    // remaining owned slots of an inline batch claimed forever.
    abandon_owner(g.key, plan.configs[g.rep], plan.state->epoch, g.promise);
  }
}

void evaluation_engine::finish_plan(batch_plan& plan) {
  for (batch_plan::group& g : plan.groups) {
    plan.out[g.rep] = g.pending.get();  // own run or foreign join; may rethrow
    for (const std::size_t d : g.dups) plan.out[d] = plan.out[g.rep];
  }
}

std::vector<evaluation> evaluation_engine::evaluate_batch(
    std::span<const configuration> configs) {
  const std::size_t n = configs.size();
  if (!opt_.memoize) {
    const std::shared_ptr<const epoch_state> st = current();
    std::vector<evaluation> out(n);
    misses_.fetch_add(n, std::memory_order_relaxed);
    if (pool_ && n > 1) {
      pool_->parallel_for(n, [&](std::size_t i) { out[i] = st->eval->evaluate(configs[i]); });
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = st->eval->evaluate(configs[i]);
    }
    for (std::size_t i = 0; i < n; ++i) fire_tap(configs[i], out[i]);
    return out;
  }

  batch_plan plan;
  plan.configs = configs;  // view of the caller's span: no copy on this path
  plan_batch(plan);
  if (pool_ && plan.owners.size() > 1) {
    // Per-batch countdown, NOT parallel_for: its wait_idle() is a
    // whole-pool barrier, and other batches (async island generations,
    // racing requests) may keep this shared pool busy indefinitely. Only
    // this batch's own tasks are awaited. Capturing stack state is safe:
    // run_owner never throws, so the countdown always completes and we
    // never return while a task is live.
    std::promise<void> done;
    std::future<void> all_done = done.get_future();
    std::atomic<std::size_t> remaining{plan.owners.size()};
    for (const std::size_t gi : plan.owners) {
      pool_->submit([this, &plan, gi, &remaining, &done] {
        run_owner(plan, gi);
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) done.set_value();
      });
    }
    all_done.wait();
  } else {
    for (const std::size_t gi : plan.owners) run_owner(plan, gi);
  }
  finish_plan(plan);
  return std::move(plan.out);
}

std::future<std::vector<evaluation>> evaluation_engine::evaluate_batch_async(
    std::vector<configuration> configs) {
  if (!opt_.memoize) {
    // Pass-through mode: evaluate inline; the async shape is kept only so
    // callers need not special-case it (exceptions still land in the
    // future, per the contract).
    std::promise<std::vector<evaluation>> done;
    std::future<std::vector<evaluation>> fut = done.get_future();
    try {
      done.set_value(evaluate_batch(configs));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return fut;
  }

  // The plan (probe + dedup + in-flight registration + all counter bumps)
  // runs synchronously here; only the owned evaluator runs are enqueued.
  // The batch owns its configurations: moving the plan keeps the vector's
  // heap buffer, so the span stays valid for the pool tasks' lifetime.
  auto plan = std::make_shared<batch_plan>();
  plan->storage = std::move(configs);
  plan->configs = plan->storage;
  plan_batch(*plan);

  if (!pool_) {
    // No workers: evaluate inline (the documented degenerate mode). Joins
    // may block on foreign threads, but only this caller waits — never a
    // pool worker — and failures still surface at get().
    for (const std::size_t gi : plan->owners) run_owner(*plan, gi);
    std::promise<std::vector<evaluation>> done;
    std::future<std::vector<evaluation>> fut = done.get_future();
    try {
      finish_plan(*plan);
      done.set_value(std::move(plan->out));
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return fut;
  }

  // Owned misses go to the pool; the last one to finish flips `owners_done`
  // (immediately, when the batch was all hits and joins — the call must
  // never block on foreign runs). Workers only ever evaluate — joining
  // foreign in-flight runs is deferred to the caller's get(), so
  // overlapping batches can never deadlock the pool however small it is.
  struct async_state {
    std::shared_ptr<batch_plan> plan;
    std::promise<void> owners_done;
    std::shared_future<void> done_future;
    std::atomic<std::size_t> remaining{0};
  };
  auto state = std::make_shared<async_state>();
  state->plan = plan;
  state->done_future = state->owners_done.get_future().share();
  state->remaining.store(plan->owners.size(), std::memory_order_relaxed);

  if (plan->owners.empty()) {
    state->owners_done.set_value();
  } else {
    for (const std::size_t gi : plan->owners) {
      pool_->submit([this, state, gi] {
        run_owner(*state->plan, gi);
        if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
          state->owners_done.set_value();
      });
    }
  }
  // Deferred assembly: runs on the thread that calls get()/wait(); an
  // abandoned owner's exception rethrows there.
  return std::async(std::launch::deferred, [this, state] {
    state->done_future.wait();
    finish_plan(*state->plan);
    return std::move(state->plan->out);
  });
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

void evaluation_engine::clear() {
  for (shard& s : shards_) {
    const std::lock_guard<std::mutex> lock{s.mu};
    for (const cache_entry& entry : s.order)
      bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
    s.map.clear();
    s.order.clear();
  }
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
