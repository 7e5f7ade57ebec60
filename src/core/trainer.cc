#include "core/trainer.h"

#include <algorithm>

#include "autograd/ops.h"
#include "data/preprocessor.h"
#include "engine/inference_context.h"
#include "nn/losses.h"
#include "tensor/tensor_ops.h"

namespace dquag {

namespace {

/// No shard is smaller than this (batches under twice this size take one
/// shard) — the tape dispatch per shard outweighs the arithmetic. Part of
/// the determinism contract: the shard count derives from the batch size
/// through this constant only.
constexpr int64_t kMinShardRows = 16;

}  // namespace

Trainer::Trainer(DquagModel* model, const DquagConfig& config)
    : model_(model),
      config_(config),
      optimizer_(model->Parameters(), config.learning_rate),
      rng_(config.seed ^ 0x7261696e65720000ULL),
      parameters_(model->Parameters()) {}

void Trainer::ApplyDenoiseMask(const Tensor& batch) {
  masked_buffer_.ResizeInPlace(batch.shape());
  std::copy(batch.data(), batch.data() + batch.numel(),
            masked_buffer_.data());
  if (config_.input_mask_prob <= 0.0f) return;
  // Denoising mask: corrupt a fraction of input cells while the target
  // stays clean. Corruptions mirror what Phase 2 will see — uniform noise
  // (anomalies), the missing sentinel, and the unknown-category sentinel —
  // so the decoders learn to reconstruct the true value from *related*
  // features instead of extrapolating an identity map (an identity map
  // reproduces out-of-range sentinels perfectly and would make missing
  // values invisible). One sequential rng_ stream over the whole batch:
  // the mask never depends on sharding or threads.
  float* data = masked_buffer_.data();
  const int64_t n = masked_buffer_.numel();
  for (int64_t i = 0; i < n; ++i) {
    if (!rng_.Bernoulli(config_.input_mask_prob)) continue;
    const double pick = rng_.Uniform();
    if (pick < 0.5) {
      data[i] = static_cast<float>(rng_.Uniform());
    } else if (pick < 0.75) {
      data[i] = static_cast<float>(MinMaxScaler::kMissingSentinel);
    } else {
      data[i] = static_cast<float>(TablePreprocessor::kUnknownSentinel);
    }
  }
}

int64_t Trainer::ShardCountForRows(int64_t rows) const {
  const int64_t configured = std::max<int64_t>(1, config_.train_shards);
  return std::min(configured, std::max<int64_t>(1, rows / kMinShardRows));
}

void Trainer::EnsureShardState(int64_t num_shards) {
  while (static_cast<int64_t>(shard_arenas_.size()) < num_shards) {
    std::vector<Tensor> grads;
    grads.reserve(parameters_.size());
    for (const VarPtr& p : parameters_) {
      grads.push_back(Tensor::Zeros(p->value().shape()));
    }
    // The inner vector's element array never moves (outer push_back moves
    // the vector header only), so sink pointers stay valid.
    shard_grads_.push_back(std::move(grads));
    auto arena = std::make_unique<GradArena>();
    for (size_t i = 0; i < parameters_.size(); ++i) {
      arena->RegisterSink(parameters_[i].get(), &shard_grads_.back()[i]);
    }
    shard_arenas_.push_back(std::move(arena));
  }
  if (static_cast<int64_t>(shard_states_.size()) < num_shards) {
    shard_states_.resize(static_cast<size_t>(num_shards));
  }
}

double Trainer::Step(const Tensor& batch) {
  DQUAG_CHECK_EQ(batch.ndim(), 2);
  DQUAG_CHECK_EQ(batch.dim(1), model_->num_features());
  ApplyDenoiseMask(batch);
  const int64_t rows = batch.dim(0);
  const int64_t d = batch.dim(1);
  const int64_t num_shards = ShardCountForRows(rows);
  EnsureShardState(num_shards);

  // Fixed shard layout: a pure function of the row count.
  const int64_t per_shard = (rows + num_shards - 1) / num_shards;
  for (int64_t s = 0; s < num_shards; ++s) {
    shard_states_[static_cast<size_t>(s)].begin = std::min(rows,
                                                           s * per_shard);
    shard_states_[static_cast<size_t>(s)].end =
        std::min(rows, (s + 1) * per_shard);
  }
  if (static_cast<int64_t>(errors_buffer_.size()) < rows) {
    errors_buffer_.resize(static_cast<size_t>(rows));
  }
  for (int64_t s = 0; s < num_shards; ++s) {
    shard_arenas_[static_cast<size_t>(s)]->ResetTouched();
    for (Tensor& sink : shard_grads_[static_cast<size_t>(s)]) {
      sink.Fill(0.0f);
    }
  }
  optimizer_.ZeroGrad();

  // Phase 1 — tape forward per shard (shared weights, thread-confined
  // tapes) plus per-row validation errors for the weight schedule.
  const bool weighted = !config_.disable_loss_weighting;
  RunTasksAndWait(pool(), num_shards, [&](int64_t s) {
    ShardState& st = shard_states_[static_cast<size_t>(s)];
    if (st.begin >= st.end) {
      st.loss = 0.0;
      return;
    }
    GradArenaScope scope(*shard_arenas_[static_cast<size_t>(s)]);
    const int64_t n = st.end - st.begin;
    Tensor input({n, d});
    std::copy(masked_buffer_.data() + st.begin * d,
              masked_buffer_.data() + st.end * d, input.data());
    Tensor target({n, d});
    std::copy(batch.data() + st.begin * d, batch.data() + st.end * d,
              target.data());
    st.input = MakeVar(std::move(input));
    st.target = MakeVar(std::move(target));
    st.out = model_->Forward(st.input);
    if (weighted) {
      const float* pred = st.out.validation->value().data();
      const float* tgt = st.target->value().data();
      for (int64_t r = 0; r < n; ++r) {
        errors_buffer_[static_cast<size_t>(st.begin + r)] =
            PerSampleError(pred + r * d, tgt + r * d, d);
      }
    }
  });

  // The weight schedule needs the whole batch's error distribution, so it
  // runs between the phases on the calling thread.
  if (weighted) {
    ErrorsToWeightsInto(errors_buffer_.data(), rows, weights_buffer_);
  }

  // Phase 2 — per-shard partial losses, backward into the shard's sinks.
  // Each shard's loss is an un-normalized sum; the global batch normalizers
  // fold into the scale, so sum_shards(loss) is the whole batch's
  // alpha * L_validation + beta * L_repair (both means) whatever the shard
  // count, up to float reassociation.
  const float val_scale =
      weighted ? config_.alpha / static_cast<float>(rows)
               : config_.alpha / static_cast<float>(rows * d);
  const float rep_scale = config_.beta / static_cast<float>(rows * d);
  RunTasksAndWait(pool(), num_shards, [&](int64_t s) {
    ShardState& st = shard_states_[static_cast<size_t>(s)];
    if (st.begin >= st.end) return;
    GradArenaScope scope(*shard_arenas_[static_cast<size_t>(s)]);
    VarPtr validation_sum;
    if (weighted) {
      const int64_t n = st.end - st.begin;
      Tensor w({n});
      std::copy(weights_buffer_.data() + st.begin,
                weights_buffer_.data() + st.end, w.data());
      validation_sum =
          WeightedPerSampleErrorSum(st.out.validation, st.target, w);
    } else {
      validation_sum = SquaredErrorSum(st.out.validation, st.target);
    }
    VarPtr repair_sum = SquaredErrorSum(st.out.repair, st.target);
    VarPtr total = ag::Add(ag::MulScalar(validation_sum, val_scale),
                           ag::MulScalar(repair_sum, rep_scale));
    Backward(total);
    st.loss = total->value()[0];
    // Nothing reads the shard's tape after backward; free it now.
    st.input.reset();
    st.target.reset();
    st.out = DquagForward{};
  });

  double loss_value = 0.0;
  for (int64_t s = 0; s < num_shards; ++s) {
    loss_value += shard_states_[static_cast<size_t>(s)].loss;
  }

  // Fixed-order pairwise tree reduction over shards, parallel across
  // parameters (each parameter reduces independently, in the same order on
  // every thread count), then one Adam step on the combined gradient. Runs
  // through the private-latch fan-out so a busy shared pool cannot stall
  // the step and an injected pool is honored.
  const int64_t num_params = static_cast<int64_t>(parameters_.size());
  RunTasksAndWait(pool(), num_params, [&](int64_t pi) {
    const size_t p = static_cast<size_t>(pi);
    bool touched = false;
    for (int64_t s = 0; s < num_shards; ++s) {
      touched |= shard_arenas_[static_cast<size_t>(s)]->touched(
          parameters_[p].get());
    }
    if (!touched) return;  // tape contract: no grad unless accumulated
    for (int64_t stride = 1; stride < num_shards; stride *= 2) {
      for (int64_t s = 0; s + stride < num_shards; s += 2 * stride) {
        AddScaledInto(shard_grads_[static_cast<size_t>(s + stride)][p], 1.0f,
                      shard_grads_[static_cast<size_t>(s)][p]);
      }
    }
    const Tensor& reduced = shard_grads_[0][p];
    Tensor& grad = parameters_[p]->grad();
    std::copy(reduced.data(), reduced.data() + reduced.numel(), grad.data());
  });

  optimizer_.Step();
  return loss_value;
}

TrainingReport Trainer::Fit(const Tensor& clean_matrix) {
  DQUAG_CHECK_EQ(clean_matrix.ndim(), 2);
  DQUAG_CHECK_EQ(clean_matrix.dim(1), model_->num_features());
  const int64_t rows = clean_matrix.dim(0);
  const int64_t d = clean_matrix.dim(1);

  // Hold out a calibration split for the error threshold (config comment
  // explains the deviation from in-sample thresholding).
  int64_t calibration_rows = static_cast<int64_t>(
      config_.calibration_fraction * static_cast<double>(rows));
  if (rows - calibration_rows < config_.batch_size) calibration_rows = 0;
  std::vector<size_t> permutation(static_cast<size_t>(rows));
  for (size_t i = 0; i < permutation.size(); ++i) permutation[i] = i;
  rng_.Shuffle(permutation);

  // Copies `count` matrix rows, picked by `row_ids`, into `out` [count, d].
  auto gather = [&](const size_t* row_ids, int64_t count, Tensor& out) {
    out.ResizeInPlace({count, d});
    for (int64_t i = 0; i < count; ++i) {
      const float* src = clean_matrix.data() + row_ids[i] * d;
      std::copy(src, src + d, out.data() + i * d);
    }
  };

  const int64_t train_rows = rows - calibration_rows;
  // The permutation is contiguous per split, so the calibration matrix is
  // one gather over a permutation span.
  Tensor calibration_matrix;
  if (calibration_rows > 0) {
    gather(permutation.data() + train_rows, calibration_rows,
           calibration_matrix);
  } else {
    gather(permutation.data(), train_rows, calibration_matrix);
  }

  TrainingReport report;
  std::vector<size_t> order(static_cast<size_t>(train_rows));
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<size_t> batch_rows;

  for (int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.Shuffle(order);
    double epoch_loss = 0.0;
    int64_t num_batches = 0;
    for (int64_t start = 0; start < train_rows;
         start += config_.batch_size) {
      const int64_t end = std::min(train_rows, start + config_.batch_size);
      // Mini-batch gathered through the composed permutation — one row
      // copy, never a train-matrix materialization.
      batch_rows.resize(static_cast<size_t>(end - start));
      for (int64_t r = start; r < end; ++r) {
        batch_rows[static_cast<size_t>(r - start)] =
            permutation[order[static_cast<size_t>(r)]];
      }
      gather(batch_rows.data(), end - start, batch_buffer_);
      epoch_loss += Step(batch_buffer_);
      ++num_batches;
    }
    report.epoch_losses.push_back(epoch_loss /
                                  std::max<int64_t>(1, num_batches));
    ++report.epochs_run;
  }

  // §3.1.4: collect clean reconstruction errors and set the threshold.
  report.clean_errors = ComputeErrors(calibration_matrix);
  report.error_statistics = ErrorStatistics::FromErrors(
      report.clean_errors, config_.threshold_percentile);
  return report;
}

std::vector<double> Trainer::ComputeErrors(const Tensor& matrix) const {
  const int64_t rows = matrix.dim(0);
  const int64_t d = matrix.dim(1);
  std::vector<double> errors(static_cast<size_t>(rows));
  // Tape-free engine path, one pool task per model row block: each worker
  // stages its block into its thread-local workspace and reads the
  // reconstruction back row by row.
  const int64_t block = DquagModel::kRowBlock;
  RunTasksAndWait(pool(), (rows + block - 1) / block, [&](int64_t b) {
    const int64_t start = b * block;
    const int64_t end = std::min(rows, start + block);
    InferenceContext& ctx = InferenceContext::ThreadLocal();
    ctx.Rewind();
    Tensor& slice = ctx.Acquire({end - start, d});
    std::copy(matrix.data() + start * d, matrix.data() + end * d,
              slice.data());
    const Tensor& reconstructed = model_->InferValidation(slice, ctx);
    const float* pred = reconstructed.data();
    const float* tgt = slice.data();
    for (int64_t r = 0; r < end - start; ++r) {
      errors[static_cast<size_t>(start + r)] =
          PerSampleError(pred + r * d, tgt + r * d, d);
    }
  });
  return errors;
}

}  // namespace dquag
