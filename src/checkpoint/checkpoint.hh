/**
 * @file
 * Versioned, CRC-checked simulation checkpoints (docs/checkpoint.md).
 *
 * A checkpoint is one flat byte buffer: a fixed header (magic,
 * format version, payload length, CRC-32 of the payload) followed by
 * the payload the subsystems serialize through Writer/Reader. Files
 * are written atomically -- temp file in the same directory, fsync,
 * rename -- so a crash mid-write can never leave a torn file under
 * the final name, and a torn rename survivor fails the CRC and is
 * quarantined instead of being restored.
 *
 * Snapshots are only taken at quiescent kernel barriers (every shard
 * clock equal, all mailboxes empty), which is what makes the format
 * shard-count independent: a checkpoint written at K=1 restores at
 * K=4 and vice versa, bit-identically (see docs/parallel_kernel.md
 * for the determinism contract this rides on).
 */

#ifndef DSP_CHECKPOINT_CHECKPOINT_HH
#define DSP_CHECKPOINT_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"

namespace dsp {
namespace ckpt {

/** File magic ("DSPC") and the serialization-contract version. Any
 *  change to any subsystem's save layout bumps the version; restore
 *  refuses a version mismatch instead of misreading old bytes. */
constexpr std::uint32_t fileMagic = 0x43505344u;
constexpr std::uint32_t formatVersion = 6;

/**
 * Append-only byte-buffer serializer. All integers are written in
 * little-endian byte order via memcpy, so the format is independent
 * of host alignment rules; trivially-copyable structs go through
 * pod() as raw bytes (the struct layouts themselves are part of the
 * versioned contract).
 */
class Writer
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        buf_.append(static_cast<const char *>(data), n);
    }

    void u8(std::uint8_t v) { bytes(&v, 1); }
    void u16(std::uint16_t v) { bytes(&v, 2); }
    void u32(std::uint32_t v) { bytes(&v, 4); }
    void u64(std::uint64_t v) { bytes(&v, 8); }

    void
    f64(double v)
    {
        bytes(&v, 8);
    }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    template <typename T>
    void
    pod(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() needs a trivially copyable type");
        bytes(&v, sizeof(T));
    }

    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "podVec() needs a trivially copyable type");
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /** Section marker: cheap structural self-check of the stream. */
    void section(std::uint32_t tag) { u32(tag); }

    const std::string &buffer() const { return buf_; }

  private:
    std::string buf_;
};

/**
 * Reader over a validated payload. The file CRC is checked before a
 * Reader is constructed, so any out-of-bounds read or section-tag
 * mismatch here is a serialization-contract bug, not disk corruption
 * -- both are fatal with a diagnostic rather than silently garbled.
 */
class Reader
{
  public:
    Reader(const void *data, std::size_t size)
        : p_(static_cast<const std::uint8_t *>(data)),
          end_(p_ + size)
    {
    }

    explicit Reader(const std::string &payload)
        : Reader(payload.data(), payload.size())
    {
    }

    void
    bytes(void *out, std::size_t n)
    {
        dsp_assert(static_cast<std::size_t>(end_ - p_) >= n,
                   "checkpoint payload underrun (%zu byte(s) short)",
                   n - static_cast<std::size_t>(end_ - p_));
        std::memcpy(out, p_, n);
        p_ += n;
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v;
        bytes(&v, 1);
        return v;
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v;
        bytes(&v, 2);
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        bytes(&v, 4);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        bytes(&v, 8);
        return v;
    }

    double
    f64()
    {
        double v;
        bytes(&v, 8);
        return v;
    }

    bool b() { return u8() != 0; }

    std::string
    str()
    {
        std::string s(u64(), '\0');
        bytes(s.data(), s.size());
        return s;
    }

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "pod() needs a trivially copyable type");
        T v;
        bytes(&v, sizeof(T));
        return v;
    }

    template <typename T>
    std::vector<T>
    podVec()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "podVec() needs a trivially copyable type");
        std::vector<T> v(u64());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
        return v;
    }

    void
    section(std::uint32_t tag)
    {
        std::uint32_t got = u32();
        dsp_assert(got == tag,
                   "checkpoint section mismatch: expected 0x%08x, "
                   "got 0x%08x (serialization contract drift)",
                   tag, got);
    }

    bool atEnd() const { return p_ == end_; }

  private:
    const std::uint8_t *p_;
    const std::uint8_t *end_;
};

/**
 * In-flight event tags, one per checkpointable event type. The saving
 * event writes its tag then its payload (Event::ckptSave); the owning
 * subsystem's restore dispatch switches on the tag.
 */
enum class EventTag : std::uint8_t {
    SysLocalDeliver,  ///< System: node-local / self-observation delivery
    SysSend,          ///< System: deferred sendOrLocal
    SysEvict,         ///< System: eviction notice in flight to its hub
    XbarOrder,        ///< crossbar: message at/leaving an ordering point
    XbarDeliver,      ///< crossbar: (payload, destination) delivery hop
    CacheIssue,       ///< cache controller: request issue after MSHR fill
    MemDirContinue,   ///< memory controller: directory-access continuation
    MemRetry,         ///< memory controller: home-reissued retry
    CpuResume,        ///< SimpleCpu: execution-resume slice
    CpuFetch,         ///< DetailedCpu: fetch-loop wakeup
};

/**
 * Write `data` to `path` atomically: temp file beside the target,
 * fsync, rename over the final name. Returns false (with a warning)
 * on any I/O failure; the target is never left torn.
 */
bool atomicWriteFile(const std::string &path, const std::string &data);

/** Wrap `payload` in the checkpoint header (magic, version, length,
 *  CRC-32) and atomicWriteFile it. */
bool writeCheckpointFile(const std::string &path,
                         const std::string &payload);

/**
 * Read and validate a checkpoint file: magic, version, length, CRC.
 * Returns false on any mismatch (torn write, truncation, corruption,
 * stale format) without touching `payload` semantics.
 */
bool readCheckpointFile(const std::string &path, std::string &payload);

/**
 * Newest valid checkpoint under `dir` (files named ckpt_<tick>.dsp),
 * or "" if none. Invalid candidates (failed CRC/header) are
 * quarantined by renaming to <name>.corrupt so they are never
 * considered again and remain on disk for forensics.
 */
std::string newestValidCheckpoint(const std::string &dir);

/**
 * Delete all but the newest `keep` *valid* checkpoints under `dir`
 * (0 = keep everything; no-op). Candidates that fail validation are
 * quarantined exactly as newestValidCheckpoint would -- they never
 * count toward `keep` and are never deleted, so a torn newest file
 * can't cause the last good snapshot to be pruned away. Returns the
 * number of files removed.
 */
std::size_t pruneCheckpoints(const std::string &dir, unsigned keep);

/** Conventional file name for the checkpoint at `tick` under `dir`. */
std::string checkpointPath(const std::string &dir, std::uint64_t tick);

/**
 * mkdir -p limited to two levels (parent + leaf) -- enough for a
 * checkpoint root and a per-job subdirectory. EEXIST is success;
 * other failures warn (the subsequent atomicWriteFile will fail
 * loudly per snapshot).
 */
void makeDirs(const std::string &path);

/**
 * Preemption-test hook: DSP_CKPT_KILL_AFTER=N makes a run that did
 * NOT restore from a checkpoint raise SIGKILL immediately after
 * writing its Nth checkpoint -- a deterministic stand-in for being
 * preempted mid-flight. Runs that restored ignore it, so a resumed
 * attempt under the same environment completes. 0 = disabled.
 */
unsigned killAfterFromEnv();

} // namespace ckpt
} // namespace dsp

#endif // DSP_CHECKPOINT_CHECKPOINT_HH
