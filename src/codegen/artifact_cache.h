// Content-addressed on-disk cache of JIT-compiled shared objects.
//
// Key = 64-bit FNV-1a hash of (emitted C source, compiler, flags); value =
// <cache_dir>/tvmbo_<hex>.so plus the source (<hex>.c) and the compiler
// log (<hex>.log) for offline inspection. A configuration that was ever
// compiled — in this process, a previous tuning run, or a concurrent one —
// resolves without invoking the compiler, which is what lets repeated
// tuning runs over the same space skip compilation almost entirely.
//
// Thread-safety: MeasureRunner builds batch members in parallel, so
// get-or-compile is safe to call concurrently. Requests for distinct keys
// compile in parallel; requests for the same key are serialized per key so
// the compiler runs once. Cross-process races are resolved by compiling to
// a unique temporary and rename(2)-ing into place (atomic on POSIX).
//
// Invalidation: the key covers everything that determines the artifact
// (source text embeds the schedule, shapes, and strides; compiler + flags
// cover the toolchain), so entries never go stale — a cache directory can
// be deleted wholesale to reclaim space, never selectively.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace tvmbo::codegen {

/// How to build a shared object from emitted C source.
struct JitOptions {
  /// C compiler executable; empty resolves $CC, then "cc".
  std::string compiler;
  /// Flags for a position-independent shared object. -ffp-contract=off
  /// keeps the compiler from fusing a*b+c into FMA, preserving
  /// bit-identical agreement with the interpreter.
  std::string flags = "-O3 -shared -fPIC -ffp-contract=off -std=c11";
  /// Artifact-cache directory; empty resolves $TVMBO_JIT_CACHE, then
  /// <system temp>/tvmbo-jit-cache.
  std::string cache_dir;
  /// Worker budget for kParallel loops: 1 (default) emits them serially,
  /// 0 lets the OpenMP runtime pick (all cores), N >= 2 pins
  /// num_threads(N). Any value other than 1 makes JitProgram emit OpenMP
  /// pragmas and append -fopenmp when the toolchain supports it — both
  /// the pragma text and the extra flag feed the cache key, so parallel
  /// and serial builds of the same kernel never collide.
  int parallel_threads = 1;
  /// Unroll hint for residual kUnrolled loops (those whose extent exceeds
  /// te::kUnrollMaxExtent, which the jit pre-pass leaves intact instead of
  /// straight-lining): values >= 2 emit `#pragma GCC unroll <N>` above
  /// them, 0/1 emit nothing. The pragma text feeds the cache key, so
  /// different hints never collide. Like the parallel/simd pragmas this
  /// is a pure control-flow hint — float64 bits are unchanged.
  int unroll_factor = 0;

  /// Compiler after environment resolution.
  std::string resolved_compiler() const;
  /// Cache directory after environment resolution.
  std::string resolved_cache_dir() const;
};

struct CacheStats {
  std::size_t hits = 0;      ///< resolved without running the compiler
  std::size_t misses = 0;    ///< had to compile
  std::size_t failures = 0;  ///< compiler invocations that failed
  double compile_s = 0.0;    ///< total seconds spent inside the compiler

  std::size_t lookups() const { return hits + misses; }
  double hit_rate() const {
    return lookups() == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(lookups());
  }
};

/// A resolved artifact.
struct Artifact {
  std::string so_path;
  bool cache_hit = false;
  double compile_s = 0.0;  ///< 0 on a hit
};

class ArtifactCache {
 public:
  /// Creates/opens the cache rooted at `dir` (created on first use).
  explicit ArtifactCache(std::string dir);

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// Returns the shared object for (source, compiler, flags), compiling
  /// when no artifact exists. Throws CheckError when the compiler fails
  /// (with the tail of its log) or the cache directory cannot be created.
  Artifact get_or_compile(const std::string& source,
                          const std::string& compiler,
                          const std::string& flags);

  const std::string& dir() const { return dir_; }
  CacheStats stats() const;
  void reset_stats();

  /// Process-wide cache for `options.resolved_cache_dir()`; instances are
  /// shared per directory so stats aggregate across a whole tuning run.
  static ArtifactCache& shared(const JitOptions& options = {});

 private:
  std::shared_ptr<std::mutex> key_mutex(const std::string& key);

  std::string dir_;
  mutable std::mutex mutex_;
  CacheStats stats_;
  std::unordered_map<std::string, std::shared_ptr<std::mutex>> in_flight_;
};

/// 64-bit FNV-1a content hash (exposed for tests).
std::uint64_t fnv1a64(const std::string& text);

/// Runs `<compiler> <flags> -o <out_path> <c_path> -lm` with
/// posix_spawnp and waits for it; no shell is involved. `compiler` and
/// `flags` are split on whitespace, with no quoting or escaping, so a
/// compiler such as "ccache gcc" works but an argument cannot contain a
/// space. Paths are passed as single arguments, whatever characters they
/// hold. The compiler's stdout and stderr go to `log_path`. Returns ""
/// on success, else what went wrong ("exit 1", "signal 9", a spawn error).
std::string run_compiler(const std::string& compiler, const std::string& flags,
                         const std::string& out_path, const std::string& c_path,
                         const std::string& log_path);

}  // namespace tvmbo::codegen
