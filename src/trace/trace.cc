#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "sim/logging.hh"

namespace dsp {

namespace {

constexpr std::uint64_t traceMagic = 0x445350545243ull;  // "DSPTRC"

struct TraceHeader {
    std::uint64_t magic = traceMagic;
    std::uint32_t version = traceVersion;
    std::uint32_t numNodes = 0;
    std::uint64_t totalInstructions = 0;
    std::uint64_t recordCount = 0;
    std::uint64_t warmupRecords = 0;
    std::uint64_t warmupInstructions = 0;
    char name[64] = {};
};

struct FileCloser {
    void
    operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

bool
writeTrace(const Trace &trace, const std::string &path)
{
    dsp_assert(trace.requiredWords.size() ==
                   trace.records.size() * trace.wordsPerRecord(),
               "trace has %zu required words for %zu records",
               trace.requiredWords.size(), trace.records.size());
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f) {
        dsp_warn("cannot open '%s' for writing", path.c_str());
        return false;
    }

    TraceHeader header;
    header.numNodes = trace.numNodes;
    header.totalInstructions = trace.totalInstructions;
    header.recordCount = trace.records.size();
    header.warmupRecords = trace.warmupRecords;
    header.warmupInstructions = trace.warmupInstructions;
    std::strncpy(header.name, trace.workloadName.c_str(),
                 sizeof(header.name) - 1);

    if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1) {
        dsp_warn("short write of trace header to '%s'", path.c_str());
        return false;
    }
    if (!trace.records.empty() &&
        std::fwrite(trace.records.data(), sizeof(TraceRecord),
                    trace.records.size(), f.get()) !=
            trace.records.size()) {
        dsp_warn("short write of trace records to '%s'", path.c_str());
        return false;
    }
    if (!trace.requiredWords.empty() &&
        std::fwrite(trace.requiredWords.data(), sizeof(std::uint64_t),
                    trace.requiredWords.size(), f.get()) !=
            trace.requiredWords.size()) {
        dsp_warn("short write of required sets to '%s'", path.c_str());
        return false;
    }
    return true;
}

Trace
readTrace(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        dsp_fatal("cannot open trace file '%s'", path.c_str());

    TraceHeader header;
    if (std::fread(&header, sizeof(header), 1, f.get()) != 1)
        dsp_fatal("truncated trace header in '%s'", path.c_str());
    if (header.magic != traceMagic)
        dsp_fatal("'%s' is not a dsp trace file", path.c_str());
    if (header.version != traceVersion)
        dsp_fatal("trace version %u unsupported (expected %u)",
                  header.version, traceVersion);
    // The node count sizes the word plane below, so bound it first.
    if (header.numNodes == 0 || header.numNodes > maxNodes)
        dsp_fatal("trace node count %u outside 1..%u in '%s'",
                  header.numNodes, maxNodes, path.c_str());

    Trace trace;
    trace.numNodes = header.numNodes;

    // The record count sizes both vectors below, so bound it by the
    // bytes the file holds before allocating.
    std::error_code ec;
    const std::uint64_t bytes = std::filesystem::file_size(path, ec);
    const std::uint64_t record_bytes =
        sizeof(TraceRecord) +
        sizeof(std::uint64_t) * trace.wordsPerRecord();
    if (ec || header.recordCount >
                  (bytes - sizeof(header)) / record_bytes) {
        dsp_fatal("trace '%s' is shorter than its %llu records",
                  path.c_str(),
                  static_cast<unsigned long long>(header.recordCount));
    }

    trace.workloadName.assign(
        header.name, strnlen(header.name, sizeof(header.name)));
    trace.totalInstructions = header.totalInstructions;
    trace.warmupRecords = header.warmupRecords;
    trace.warmupInstructions = header.warmupInstructions;
    trace.records.resize(header.recordCount);
    if (header.recordCount &&
        std::fread(trace.records.data(), sizeof(TraceRecord),
                   header.recordCount, f.get()) != header.recordCount) {
        dsp_fatal("truncated trace records in '%s'", path.c_str());
    }
    trace.requiredWords.resize(header.recordCount *
                               trace.wordsPerRecord());
    if (!trace.requiredWords.empty() &&
        std::fread(trace.requiredWords.data(), sizeof(std::uint64_t),
                   trace.requiredWords.size(),
                   f.get()) != trace.requiredWords.size()) {
        dsp_fatal("truncated required sets in '%s'", path.c_str());
    }
    return trace;
}

} // namespace dsp
