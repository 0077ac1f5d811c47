"""The benchmark's traced run wraps qasum's layers by name; a refactor must keep it running.

A wrapper whose target is gone is skipped and its metrics read 0, so the
skipped list below changes only when a traced metric is knowingly blanked
or restored.
"""

from qasum.cli import main
from test_perfbench_stub import load_perfbench

# Targets that no longer exist: `index` streams through IndexWriter, and the query path pins the
# corpus through CorpusFile.pinned, so the corpus.load, corpus.segment and insert/save spans and the
# corpus counts read 0 until qasum owns its stage timers.
SKIPPED = ["qasum.cli.load_corpus", "qasum.cli.SegmentedCorpus", "VectorIndex.insert", "VectorIndex.save"]


def test_traced_commands_run_with_the_known_wrappers_skipped(pipeline_config):
    spans = load_perfbench("spans")
    rec = spans.Recorder()
    patches = spans.Patches(rec).install()
    config = ["--config", str(pipeline_config)]
    commands = [
        ["index", *config],
        ["ask", *config, "What medications were prescribed at discharge?"],
        ["ask", *config, "What dietary restrictions were recommended?"],
        ["summarize", *config, "--timestamp", "2026-01-15T00:00:00Z", "--workers", "2"],
    ]
    codes = []
    try:
        for argv in commands:
            with rec.span(f"{spans.ROOT_SPAN}:{argv[0]}", root=True):
                codes.append(main(argv))
            rec.end_command()
    finally:
        patches.remove()
    assert codes == [0, 0, 2, 0]
    assert patches.skipped == SKIPPED
    metrics = spans.per_layer_metrics(rec, rounds=1, overhead_ratio=1.0)
    assert metrics["vector_index.search_calls"] == 2 + 6
    assert metrics["answer_engine.questions"] == 2 + 6
