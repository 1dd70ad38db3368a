// R4 fixture (good): the Result is assigned, the task is awaited, and the one
// deliberate discard carries an allow annotation.
namespace c4h {
Result<void> flush_metadata();
sim::Task<Result<void>> replicate_all();

sim::Task<> tick() {
  auto r = flush_metadata();
  if (!r.ok()) co_return;
  (void)co_await replicate_all();
  // c4h-analyze: allow(R4) — best-effort flush on shutdown; failure is benign.
  (void)flush_metadata();
}
}  // namespace c4h
