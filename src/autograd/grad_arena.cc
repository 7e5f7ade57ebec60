#include "autograd/grad_arena.h"

namespace dquag {

namespace {
thread_local GradArena* g_active_arena = nullptr;
}  // namespace

void GradArena::RegisterSink(const Variable* param, Tensor* sink) {
  Sink& entry = sinks_[param];
  entry.tensor = sink;
  entry.touched = false;
}

Tensor* GradArena::FindSink(const Variable* param) {
  if (sinks_.empty()) return nullptr;
  auto it = sinks_.find(param);
  if (it == sinks_.end()) return nullptr;
  it->second.touched = true;
  return it->second.tensor;
}

bool GradArena::touched(const Variable* param) const {
  auto it = sinks_.find(param);
  return it != sinks_.end() && it->second.touched;
}

void GradArena::ResetTouched() {
  for (auto& [param, sink] : sinks_) sink.touched = false;
}

GradArenaScope::GradArenaScope(GradArena& arena)
    : previous_(g_active_arena) {
  g_active_arena = &arena;
}

GradArenaScope::~GradArenaScope() { g_active_arena = previous_; }

GradArena* ActiveGradArena() { return g_active_arena; }

}  // namespace dquag
